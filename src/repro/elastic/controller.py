"""The fleet controller: executes a :class:`ScaleSchedule` against a cluster.

The driver polls the controller at every stage boundary — task-to-executor
binding is per-stage, so fleet membership can only change between stages —
and every scale event due by then is applied in fire-time order:

- *scale-up* activates executors (parked ones rejoin lowest id first,
  then fresh ones are provisioned up to ``ElasticConfig.max_executors``)
  and wires them into the residency directory, the remote pool and the
  decision layer's victim indexes;
- *scale-down* drains gracefully: the victim leaves the fleet first, then
  every resident block migrates to its new home executor — memory blocks
  into memory if they fit, else the remote tier, else disk; disk blocks
  onto the target's disk — with the copy I/O charged as background work;
- *preemption* is a spot reclaim: the executor is wiped through the fault
  layer's crash path (lineage recovery pays the bill later) and parked
  without a drain.  Remote-tier blocks survive — the pool belongs to the
  cluster, which is precisely the tier's disaggregation argument.

After every applied event the cache manager's ``on_fleet_changed`` hook
fires: the home-executor mapping moved, so residency-derived memoized
decision state must be rebuilt.  Nothing here advances the virtual clock;
migration time lands in ``Executor.busy_until`` like ILP migrations do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.blocks import BlockLocation
from ..faults.injector import crash_wipe
from ..metrics.collector import TaskMetrics
from .schedule import ScaleSchedule, ScaleSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.cachemanager import CacheManager
    from ..cluster.cluster import Cluster
    from ..config import ElasticConfig


class FleetController:
    """Drives one scale schedule's events into a live cluster."""

    def __init__(
        self,
        schedule: ScaleSchedule,
        cluster: "Cluster",
        cache_manager: "CacheManager",
        config: "ElasticConfig",
    ) -> None:
        self.cluster = cluster
        self.manager = cache_manager
        self.config = config
        self.metrics = cluster.metrics
        self.tracer = cluster.tracer
        normalized = schedule.clamped_to(len(cluster.executors))
        #: not-yet-applied specs, in fire-time order (stable)
        self._pending: list[ScaleSpec] = normalized.in_order()

    # ------------------------------------------------------------------
    def poll(self, now: float, job_id: int) -> None:
        """Apply every scale event due at or before ``now`` (stage hook)."""
        while self._pending and self._pending[0].at <= now:
            self._apply(self._pending.pop(0), now, job_id)

    def _apply(self, spec: ScaleSpec, now: float, job_id: int) -> None:
        self.metrics.scale_events += 1
        if spec.kind == "scale_up":
            changed = self._scale_up(spec)
        elif spec.kind == "scale_down":
            changed = self._scale_down(spec, now, job_id)
        else:
            changed = self._preempt(spec)
        if changed:
            self.manager.on_fleet_changed()

    # ------------------------------------------------------------------
    # Event kinds
    # ------------------------------------------------------------------
    def _scale_up(self, spec: ScaleSpec) -> bool:
        added = 0
        for _ in range(spec.count):
            if len(self.cluster.active_ids) >= self.config.max_executors:
                break
            executor = self.cluster.activate_executor()
            self.manager.on_executor_added(executor)
            added += 1
        self.metrics.scale_ups += 1
        self.metrics.executors_added += added
        self._trace(spec, added=added)
        return added > 0

    def _scale_down(self, spec: ScaleSpec, now: float, job_id: int) -> bool:
        removed = migrated = 0
        tm = TaskMetrics()
        last_victim = None
        for _ in range(spec.count):
            active = self.cluster.active_ids
            if len(active) <= self.config.min_executors:
                break
            victim_id = active[spec.executor_id % len(active)]
            migrated += self._drain(victim_id, tm)
            last_victim = victim_id
            removed += 1
        if tm.total_seconds > 0 and last_victim is not None:
            # The departing node does the copy-out; its slots are gone, so
            # the charge only shapes the record — totals stay honest.
            self.cluster.executors[last_victim].charge_background(now, tm.total_seconds)
            self.metrics.record_task(job_id, last_victim, tm)
        self.metrics.scale_downs += 1
        self.metrics.executors_removed += removed
        self._trace(spec, removed=removed, migrated=migrated)
        return removed > 0

    def _drain(self, victim_id: int, tm: TaskMetrics) -> int:
        """Migrate every block off ``victim_id``; returns blocks moved.

        The victim leaves the fleet *before* the drain so targets are
        computed under the post-departure mapping — exactly where future
        lookups will go.  Shuffle map outputs are kept: a graceful drain
        copies them off before the node terminates (only preemption loses
        them).
        """
        executor = self.cluster.executors[victim_id]
        self.cluster.deactivate_executor(victim_id)
        moved = 0
        for block in executor.bm.cached_blocks():
            extracted, loc = executor.bm.extract(block.block_id)
            if (
                self.cluster.find_block(extracted.block_id) is not None
                or self.cluster.remote_block(extracted.block_id) is not None
            ):
                continue  # another copy is already reachable; drop this one
            target = self.cluster.executor_for(extracted.split)
            self.cluster.charge_remote_read(extracted, tm)  # the copy itself
            if loc is BlockLocation.MEMORY:
                if target.bm.memory.fits(extracted.size_bytes):
                    target.bm.insert_memory(extracted)
                elif not target.bm.insert_remote(extracted, tm):
                    target.bm.insert_disk(extracted, tm)
            else:
                target.bm.insert_disk(extracted, tm)
            moved += 1
            self.metrics.blocks_migrated += 1
            self.metrics.migrated_bytes += extracted.size_bytes
        return moved

    def _preempt(self, spec: ScaleSpec) -> bool:
        removed = lost = 0
        for _ in range(spec.count):
            active = self.cluster.active_ids
            if len(active) <= self.config.min_executors:
                break
            victim_id = active[spec.executor_id % len(active)]
            executor = self.cluster.executors[victim_id]
            # Wipe while still in the fleet: the shuffle-output ownership
            # mapping must see the victim as a member.
            blocks, _dropped = crash_wipe(self.cluster, self.manager, executor)
            self.cluster.deactivate_executor(victim_id)
            lost += len(blocks)
            removed += 1
        self.metrics.preemptions += 1
        self.metrics.executors_removed += removed
        self._trace(spec, removed=removed, blocks_lost=lost)
        return removed > 0

    # ------------------------------------------------------------------
    def _trace(self, spec: ScaleSpec, **extra) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet.scale", "fleet",
                kind=spec.kind, at=spec.at, count=spec.count,
                fleet=len(self.cluster.active_ids), **extra,
            )

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"<FleetController pending={len(self._pending)} "
            f"fleet={len(self.cluster.active_ids)}>"
        )
