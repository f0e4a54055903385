"""The simulated cluster: executors, clock, shuffle plane, metrics."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import ClusterConfig
from ..metrics.collector import MetricsCollector
from ..sim.clock import VirtualClock
from ..tracing.tracer import NULL_TRACER, Tracer
from .blocks import Block, BlockId, BlockLocation
from .directory import ResidencyDirectory
from .executor import Executor
from .shuffle import ShuffleManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import RemoteMemoryConfig
    from ..metrics.collector import TaskMetrics
    from .stores import BlockStore


class Cluster:
    """Owns the executors and the shared simulation state."""

    def __init__(
        self,
        config: ClusterConfig,
        metrics: MetricsCollector | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.metrics = metrics or MetricsCollector()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.tracer.bind_clock(self.clock)
        self.executors = [
            Executor(i, config, self.metrics, self.tracer)
            for i in range(config.num_executors)
        ]
        self.shuffle = ShuffleManager(config)
        #: cluster-wide block residency index, maintained through the block
        #: managers' listener path; replaces the per-lookup executor scan.
        self.directory = ResidencyDirectory(self.executors)
        #: tenant registry (set by the job service); None for bare clusters.
        self.tenancy = None
        #: observability hub (set by the job service when ``obs.enabled``);
        #: None keeps every hot path on a single attribute check.
        self.obs = None
        #: sorted executor ids currently in the fleet.  The fixed-fleet
        #: engine never touches this (active == all, so every mapping below
        #: reduces to the historical ``split % num_executors``); the elastic
        #: fleet controller activates/parks ids at stage boundaries.
        self._active_ids: list[int] = list(range(config.num_executors))
        #: cluster-wide remote-memory pool (``repro.elastic``); None unless
        #: the context was given a scale schedule.  The pool belongs to the
        #: cluster, not to any executor — blocks in it survive preemption.
        self.remote_store: "BlockStore | None" = None
        self.remote_config: "RemoteMemoryConfig | None" = None

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    @property
    def active_ids(self) -> list[int]:
        """Ids of the executors currently in the fleet, ascending."""
        return self._active_ids

    def active_executors(self) -> list[Executor]:
        return [self.executors[eid] for eid in self._active_ids]

    def home_executor_id(self, split: int) -> int:
        """Home executor id of a partition under the *current* fleet."""
        return self._active_ids[split % len(self._active_ids)]

    def activate_executor(self) -> Executor:
        """Bring one executor into the fleet (elastic scale-up).

        Parked executors rejoin lowest id first (their listener wiring and
        empty stores survived the park); past that, a fresh executor is
        provisioned and appended, and the caller is responsible for the
        subsystem wiring (directory registration, cache-manager state)
        via the fleet controller.
        """
        active = set(self._active_ids)
        for eid in range(len(self.executors)):
            if eid not in active:
                self._active_ids.append(eid)
                self._active_ids.sort()
                return self.executors[eid]
        executor = Executor(len(self.executors), self.config, self.metrics, self.tracer)
        self.executors.append(executor)
        self.directory.register(executor)
        if self.remote_store is not None:
            executor.bm.bind_remote(self.remote_store, self.remote_config)
        self._active_ids.append(executor.executor_id)
        self._active_ids.sort()
        return executor

    def deactivate_executor(self, executor_id: int) -> None:
        """Remove one executor from the fleet (drain or preemption done)."""
        self._active_ids.remove(executor_id)

    def active_memory_capacity_bytes(self) -> float:
        """Aggregate memory-store capacity of the current fleet."""
        return self.config.memory_store_bytes * len(self._active_ids)

    # ------------------------------------------------------------------
    def executor_for(self, split: int) -> Executor:
        """Deterministic home executor of a partition index.

        Co-indexed partitions of co-partitioned datasets land on the same
        executor, which is how locality-aware scheduling keeps cache reads
        local across iterations (section 6 of the paper).  The mapping is
        over the *active* fleet; with elasticity off that is the full
        executor list and the mapping never changes.
        """
        return self.executors[self._active_ids[split % len(self._active_ids)]]

    # ------------------------------------------------------------------
    def find_block(self, block_id: BlockId) -> tuple[Executor, BlockLocation] | None:
        """Locate a block anywhere in the cluster (home executor first).

        One residency-directory probe instead of the historical
        every-executor scan; the directory's tie-break (home executor,
        then lowest executor id) reproduces the scan's answer exactly.
        The remote-memory pool is not an executor and is looked up
        separately (:meth:`remote_block`).
        """
        home_eid = self.home_executor_id(block_id[1])
        eid = self.directory.locate(block_id, home_eid)
        if eid is None:
            return None
        executor = self.executors[eid]
        return executor, executor.bm.location_of(block_id)

    def remote_block(self, block_id: BlockId) -> Block | None:
        """The block in the cluster-wide remote pool, if the tier holds it."""
        if self.remote_store is None:
            return None
        return self.remote_store.get(block_id)

    def enable_remote_tier(self, remote: "RemoteMemoryConfig") -> None:
        """Build the shared remote-memory pool and hand it to every BM."""
        from .stores import BlockStore

        self.remote_store = BlockStore(remote.capacity_bytes, "remote")
        self.remote_config = remote
        for executor in self.executors:
            executor.bm.bind_remote(self.remote_store, remote)

    def charge_remote_read(self, block: Block, tm: "TaskMetrics") -> None:
        """Network transfer of a remotely cached block (rare under locality)."""
        net = self.config.network
        tm.remote_read_seconds += net.latency_seconds + block.size_bytes / net.bytes_per_sec

    # ------------------------------------------------------------------
    def memory_used_bytes(self) -> float:
        return sum(e.bm.memory.used_bytes for e in self.executors)

    def disk_used_bytes(self) -> float:
        return sum(e.bm.disk.used_bytes for e in self.executors)

    def __repr__(self) -> str:
        return (
            f"<Cluster {len(self.executors)} executors, "
            f"mem={self.memory_used_bytes() / 1e6:.1f}MB disk={self.disk_used_bytes() / 1e6:.1f}MB>"
        )
