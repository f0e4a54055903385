"""Virtual-clock time-series sampler for occupancy and service health.

The sampler registers as a :class:`~repro.sim.clock.VirtualClock`
listener and records one :class:`Sample` each time virtual time crosses
a fixed interval boundary.  Samples are stamped *at the boundary*: a
single large clock jump that crosses several boundaries emits one row
per boundary, all carrying the state observed after the jump (the
simulation state genuinely did not change in between — nothing moves
without the clock moving).

Reading state never mutates it: the sampler walks the block stores,
reads metric counters, and counts pending service applications, nothing
else, so traces stay byte-identical with sampling on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.cluster import Cluster

#: tenant key used for blocks cached outside any tenant context.
UNOWNED = "default"


@dataclass(frozen=True)
class Sample:
    """One fixed-interval observation of cluster and service state."""

    ts: float
    memory_used_bytes: float
    disk_used_bytes: float
    #: per-tenant byte occupancy, sorted by tenant name.
    memory_by_tenant: tuple[tuple[str, float], ...]
    disk_by_tenant: tuple[tuple[str, float], ...]
    #: ``quota - memory occupancy`` per quota-carrying tenant (negative
    #: while a tenant is over quota); empty when quotas are off.
    quota_headroom: tuple[tuple[str, float], ...]
    cache_hits: int
    cache_misses: int
    hit_ratio: float
    shared_hits: int
    shared_hit_rate: float
    #: applications parked on a pending job request in the service loop.
    queue_depth: int

    def tenant_memory(self, tenant: str) -> float:
        return dict(self.memory_by_tenant).get(tenant, 0.0)


class OccupancySampler:
    """Clock-driven sampler; attach via ``clock.add_listener(s.on_advance)``."""

    def __init__(
        self, cluster: "Cluster", interval_seconds: float, max_samples: int
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("sample interval must be positive")
        self.cluster = cluster
        self.interval = float(interval_seconds)
        self.max_samples = max_samples
        #: bound by the service (when there is one) for queue-depth reads.
        self.service = None
        self._samples: list[Sample] = []
        self._next_t = self.interval
        #: True once the ``max_samples`` cap dropped at least one boundary.
        self.truncated = False

    @property
    def samples(self) -> tuple[Sample, ...]:
        return tuple(self._samples)

    def on_advance(self, now: float) -> None:
        if now < self._next_t:
            return
        if len(self._samples) >= self.max_samples:
            self.truncated = True
            return
        snap = self._snapshot()
        while self._next_t <= now:
            if len(self._samples) >= self.max_samples:
                self.truncated = True
                break
            self._samples.append(replace(snap, ts=self._next_t))
            self._next_t += self.interval

    # ------------------------------------------------------------------
    def _snapshot(self) -> Sample:
        mem_by: dict[str, float] = {}
        disk_by: dict[str, float] = {}
        for executor in self.cluster.executors:
            for block in executor.bm.memory.blocks():
                key = block.tenant if block.tenant is not None else UNOWNED
                mem_by[key] = mem_by.get(key, 0.0) + block.size_bytes
            for block in executor.bm.disk.blocks():
                key = block.tenant if block.tenant is not None else UNOWNED
                disk_by[key] = disk_by.get(key, 0.0) + block.size_bytes

        headroom: list[tuple[str, float]] = []
        tenancy = self.cluster.tenancy
        if tenancy is not None and tenancy.quotas_active:
            for tenant in sorted(tenancy.quotas):
                quota = tenancy.quota_of(tenant)
                if quota is not None:
                    headroom.append((tenant, quota - mem_by.get(tenant, 0.0)))

        metrics = self.cluster.metrics
        hits = metrics.cache_hits
        misses = metrics.cache_misses
        accesses = hits + misses
        shared = metrics.shared_hits

        queue_depth = 0
        if self.service is not None:
            queue_depth = sum(
                1 for a in self.service._apps if a.state == "pending"
            )

        return Sample(
            ts=0.0,
            memory_used_bytes=sum(mem_by.values()),
            disk_used_bytes=sum(disk_by.values()),
            memory_by_tenant=tuple(sorted(mem_by.items())),
            disk_by_tenant=tuple(sorted(disk_by.items())),
            quota_headroom=tuple(headroom),
            cache_hits=hits,
            cache_misses=misses,
            hit_ratio=hits / accesses if accesses else 0.0,
            shared_hits=shared,
            shared_hit_rate=shared / hits if hits else 0.0,
            queue_depth=queue_depth,
        )
