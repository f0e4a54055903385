"""The cache-manager seam between the execution engine and caching logic.

Every system under test (plain Spark modes, LRC/MRD variants, Blaze and its
ablations) is a :class:`CacheManager` implementation.  The driver calls the
hooks at well-defined points:

- ``on_stream_open`` / ``on_stream_close`` — an application started or
  ended (the service fires them; Blaze opens and closes the application's
  reference stream, Spark-style managers ignore them);
- ``on_job_submit`` — a new job (iteration) was submitted; policies refresh
  lineage-derived state, Blaze triggers the ILP;
- ``on_stage_complete`` — a stage finished; Blaze auto-caches/unpersists;
- ``handle_cache`` — a task materialized a partition of a cache candidate;
  the manager decides admission, victims, and victim states;
- ``on_memory_hit`` / ``on_disk_hit`` — accesses, for recency/frequency
  bookkeeping and promote-on-read.

The engine itself never embeds policy: all caching, eviction, and recovery
*decisions* flow through this interface, which is precisely the separation
the paper's "three operational layers" discussion is about.

The *mechanism* under those decisions is shared, one home each, so that a
manager keeps only its decisions:

- :meth:`CacheManager._new_block` — the tenant-tagged block a produced
  partition is stored as;
- :meth:`CacheManager._evict` — one memory victim carried to its chosen
  state (remote with a disk fallback, disk, or gone);
- :meth:`CacheManager._prefetch` — a disk block read back and promoted
  between tasks (MRD's prefetch, the ILP's promotions);
- :meth:`CacheManager._audit_decision` — the one audit record of an
  admission or rejection;
- the quota fairness-tier rule, in ``repro.service.tenancy``
  (``TenantRegistry.victim_tiers`` and ``take_tiered``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from ..tracing.tracer import NULL_TRACER, Tracer
from .blocks import Block, BlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow.dag import Job, JobStream, Stage
    from ..dataflow.rdd import RDD
    from ..metrics.collector import TaskMetrics
    from ..obs.audit import CandidateTerm
    from .blockmanager import BlockManager
    from .cluster import Cluster
    from .executor import Executor


class CacheManager(ABC):
    """Unified seam for caching, eviction, and recovery decisions."""

    name = "abstract"

    def __init__(self) -> None:
        self.cluster: "Cluster | None" = None
        #: the run's tracer; bound in :meth:`attach`, no-op until then
        self.tracer: Tracer = NULL_TRACER
        #: the run's decision audit log (``repro.obs``); ``None`` unless the
        #: cluster carries an enabled observability hub.  Pure observer: the
        #: manager records entries into it but never reads decisions back.
        self.audit = None

    def attach(self, cluster: "Cluster") -> None:
        """Bind to the cluster before the first job runs."""
        self.cluster = cluster
        self.tracer = cluster.tracer
        hub = getattr(cluster, "obs", None)
        self.audit = hub.audit if hub is not None else None

    def detach(self) -> None:
        """Release the cluster binding (context shutdown).

        Subclasses that keep per-run state keyed on the cluster should
        reset it here so a manager instance cannot leak state into a
        later :class:`~repro.dataflow.context.BlazeContext`.
        """
        self.cluster = None
        self.tracer = NULL_TRACER
        self.audit = None

    # ------------------------------------------------------------------
    # Candidate selection (the caching layer)
    # ------------------------------------------------------------------
    @abstractmethod
    def is_cache_candidate(self, rdd: "RDD") -> bool:
        """Should materialized partitions of ``rdd`` go through the cache?"""

    def will_never_store(self, rdd: "RDD") -> bool:
        """May the engine elide materializing ``rdd``'s partitions?

        Return True only when, for the remainder of the current stage,
        offering a partition of ``rdd`` via :meth:`handle_cache` is
        guaranteed to be a side-effect-free no-op (nothing stored, no
        state or trace touched) — e.g. the dataset is not a candidate at
        all, or admission provably rejects it.  The fused data plane uses
        this to pipeline narrow chains without perturbing decisions; the
        conservative default disables elision.
        """
        return False

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_stream_open(self, stream: "JobStream") -> None:  # noqa: B027
        """An application started; its jobs will carry ``stream``.

        Fired by the service when the application starts running — at its
        arrival time, never while it is still queued to arrive.
        """

    def on_stream_close(self, stream: "JobStream") -> None:  # noqa: B027
        """The application behind ``stream`` ended; no more jobs from it."""

    def on_job_submit(self, job: "Job") -> None:  # noqa: B027 - optional hook
        """Called before the job's first stage executes."""

    def on_stage_start(self, stage: "Stage") -> None:  # noqa: B027
        """Called right before a stage's first task starts."""

    def on_stage_complete(self, stage: "Stage") -> None:  # noqa: B027
        """Called after every stage's last task finishes."""

    def on_job_complete(self, job: "Job") -> None:  # noqa: B027
        """Called after the job's result stage finishes."""

    # ------------------------------------------------------------------
    # Data-path hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def handle_cache(
        self,
        executor: "Executor",
        rdd: "RDD",
        split: int,
        data: list[Any],
        size_bytes: float,
        tm: "TaskMetrics",
    ) -> None:
        """A task produced a candidate partition; decide where it goes.

        Implementations may cache it in memory (possibly evicting victims),
        write it straight to disk, or drop it.  All I/O incurred must be
        charged to ``tm`` (it happens inside the producing task).
        """

    def on_partition_computed(
        self,
        rdd: "RDD",
        split: int,
        n_in: int,
        n_out: int,
        compute_seconds: float,
        size_weight: float,
    ) -> None:  # noqa: B027
        """Per-partition profiling feed (sizes and compute times, §5.3/§6).

        Called for *every* operator execution, so metric trackers see both
        first materializations and recomputations.
        """

    def on_memory_hit(self, executor: "Executor", block: "Block", tm: "TaskMetrics") -> None:  # noqa: B027
        """A task read ``block`` from executor memory."""

    def on_disk_hit(self, executor: "Executor", block: "Block", tm: "TaskMetrics") -> None:  # noqa: B027
        """A task read ``block`` from executor disk (after charging I/O)."""

    def on_remote_hit(self, executor: "Executor", block: "Block", tm: "TaskMetrics") -> None:  # noqa: B027
        """A task read ``block`` from the remote-memory tier (I/O charged).

        Only fired when the elastic subsystem's remote tier is enabled;
        managers may promote the block toward executor memory.
        """

    # ------------------------------------------------------------------
    # Fleet-membership hooks (the elastic controller, ``repro.elastic``)
    # ------------------------------------------------------------------
    def on_executor_added(self, executor: "Executor") -> None:  # noqa: B027
        """A new executor joined the fleet (elastic scale-up)."""

    def on_fleet_changed(self) -> None:  # noqa: B027
        """Fleet membership changed; home-executor mappings moved.

        Fired after every applied scale event (up, down, or preemption) so
        managers can drop residency-derived memoized state.  Never fired
        on fixed-fleet runs.
        """

    def on_block_removed(self, executor: "Executor", block: "Block") -> None:  # noqa: B027
        """A block left the executor entirely (driver unpersist etc.)."""

    def on_block_lost(self, executor: "Executor", block: "Block") -> None:
        """A block *vanished* without an eviction decision (crash, fault).

        Fired by the fault layer after ``BlockManager.purge_lost``.  The
        default treats loss like a removal so per-block policy state is
        freed; managers with residency listeners already saw the removal.
        """
        self.on_block_removed(executor, block)

    def predicted_recovery_cost(
        self, rdd_id: int, split: int, state: str
    ) -> float | None:
        """Model-predicted cost to recover ``(rdd, split)`` from ``state``.

        ``state`` is ``"disk"`` (read-back), ``"remote"`` (remote-tier
        pull), or ``"gone"`` (lineage recomputation).  The fault layer's
        calibration hook compares this against the measured virtual-time
        recovery; managers without a cost model return ``None`` and
        produce no samples.
        """
        return None

    # ------------------------------------------------------------------
    # Shared mechanism (every manager's decisions run through these)
    # ------------------------------------------------------------------
    def _new_block(
        self, rdd: "RDD", split: int, data: list[Any], size_bytes: float
    ) -> Block:
        """The block a produced partition is stored as, tagged with its tenant."""
        tenancy = self.cluster.tenancy
        return Block(
            block_id=(rdd.rdd_id, split),
            data=data,
            size_bytes=size_bytes,
            ser_factor=rdd.size_model.ser_factor,
            rdd_name=rdd.name,
            tenant=tenancy.current_tenant if tenancy is not None else None,
        )

    def _evict(
        self,
        bm: "BlockManager",
        victim: BlockId,
        state: str,
        tm: "TaskMetrics",
        include_ser: bool = True,
    ) -> str:
        """Carry a victim to ``state``; returns where it landed.

        A remote demotion the pool cannot take (capacity) falls back to
        the disk spill, so a decision is never re-planned mid-eviction.
        ``"gone"`` discards the block from whichever tier holds it.
        """
        if state == "remote":
            if bm.demote_to_remote(victim, tm) is not None:
                return "remote"
            state = "disk"
        if state == "disk":
            bm.spill_to_disk(victim, tm, include_ser)
            return "disk"
        bm.discard(victim, evicted=True)
        return "gone"

    def _prefetch(
        self, executor: "Executor", block_id: BlockId, tm: "TaskMetrics"
    ) -> Block | None:
        """Read a disk block back into memory; the promoted block or None.

        The read is charged to ``tm``; the caller checked that it fits.
        """
        bm = executor.bm
        bm.read_from_disk(block_id, tm)
        promoted = bm.promote_to_memory(block_id)
        if promoted is not None:
            promoted.touch(self.cluster.clock.now)
            self.cluster.metrics.record_prefetch(executor.executor_id)
        return promoted

    def _audit_decision(
        self,
        executor: "Executor",
        block: Block,
        *,
        outcome: str,
        reason: str,
        candidates: tuple[CandidateTerm, ...] = (),
        states: list | tuple = (),
        terms: tuple = (),
    ) -> None:
        """Record one admission (``outcome == "memory"``) or rejection.

        ``states`` are where the chosen ``candidates`` landed, in order;
        ``terms`` are the manager's comparison terms (``make_terms``).
        """
        if states:
            candidates = tuple(
                c._replace(chosen_state=s) for c, s in zip(candidates, states)
            )
        self.audit.record(
            ts=self.cluster.clock.now,
            kind="admit" if outcome == "memory" else "reject",
            executor_id=executor.executor_id,
            outcome=outcome,
            reason=reason,
            rdd_id=block.rdd_id,
            split=block.split,
            size_bytes=block.size_bytes,
            tenant=block.tenant,
            terms=terms,
            candidates=tuple(candidates),
        )
