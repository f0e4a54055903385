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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from ..tracing.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow.dag import Job, JobStream, Stage
    from ..dataflow.rdd import RDD
    from ..metrics.collector import TaskMetrics
    from .blocks import Block
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
        freed; managers with residency listeners already saw the removal
        and may only need memo hygiene.
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
