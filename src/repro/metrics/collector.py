"""Per-task and per-run metric accounting.

The evaluation figures are all derived from two ledgers:

- :class:`TaskMetrics` — virtual seconds charged while one task executes,
  split by category (compute, shuffle, cache disk I/O, (de)serialization,
  recomputation of previously materialized partitions);
- :class:`MetricsCollector` — run-wide aggregation plus cache-event
  counters (evictions, unpersists, spilled bytes, disk occupancy) per
  executor, mirroring the paper's "accumulated task execution time" and
  "evicted data per executor" measurements.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class TaskMetrics:
    """Virtual-seconds ledger for a single task execution.

    ``recompute_seconds`` is the subset of ``compute_seconds`` spent
    re-materializing partitions that had been produced before (i.e. the
    recovery cost of evicted data); it is *included* in ``compute_seconds``.
    """

    compute_seconds: float = 0.0
    recompute_seconds: float = 0.0
    shuffle_read_seconds: float = 0.0
    shuffle_write_seconds: float = 0.0
    cache_disk_read_seconds: float = 0.0
    cache_disk_write_seconds: float = 0.0
    ser_seconds: float = 0.0
    deser_seconds: float = 0.0
    remote_read_seconds: float = 0.0
    #: remote-memory *tier* transfers (``repro.elastic``) — distinct from
    #: ``remote_read_seconds``, which is peer-executor network reads.
    remote_tier_read_seconds: float = 0.0
    remote_tier_write_seconds: float = 0.0

    cache_bytes_written: float = 0.0
    cache_bytes_read: float = 0.0
    shuffle_bytes: float = 0.0

    #: work performed on the task's behalf that would run in parallel on a
    #: real cluster (resubmitted map stages during deep recovery): counted
    #: in the accumulated totals but subtracted from the task's duration.
    offloaded_seconds: float = 0.0

    @property
    def disk_io_seconds(self) -> float:
        """The paper's "Disk I/O for Caching" bucket (Fig. 4 / Fig. 10)."""
        return (
            self.cache_disk_read_seconds
            + self.cache_disk_write_seconds
            + self.ser_seconds
            + self.deser_seconds
            + self.remote_tier_read_seconds
            + self.remote_tier_write_seconds
        )

    @property
    def compute_shuffle_seconds(self) -> float:
        """The paper's "Computation+Shuffle" bucket."""
        return (
            self.compute_seconds
            + self.shuffle_read_seconds
            + self.shuffle_write_seconds
            + self.remote_read_seconds
        )

    @property
    def total_seconds(self) -> float:
        """Total work charged to the task (accumulated-time accounting)."""
        return self.disk_io_seconds + self.compute_shuffle_seconds

    @property
    def duration_seconds(self) -> float:
        """Wall (virtual) duration the task occupies its slot."""
        return max(self.total_seconds - self.offloaded_seconds, 0.0)

    def merge(self, other: "TaskMetrics") -> None:
        """Accumulate ``other`` into this ledger."""
        self.compute_seconds += other.compute_seconds
        self.recompute_seconds += other.recompute_seconds
        self.shuffle_read_seconds += other.shuffle_read_seconds
        self.shuffle_write_seconds += other.shuffle_write_seconds
        self.cache_disk_read_seconds += other.cache_disk_read_seconds
        self.cache_disk_write_seconds += other.cache_disk_write_seconds
        self.ser_seconds += other.ser_seconds
        self.deser_seconds += other.deser_seconds
        self.remote_read_seconds += other.remote_read_seconds
        self.remote_tier_read_seconds += other.remote_tier_read_seconds
        self.remote_tier_write_seconds += other.remote_tier_write_seconds
        self.cache_bytes_written += other.cache_bytes_written
        self.cache_bytes_read += other.cache_bytes_read
        self.shuffle_bytes += other.shuffle_bytes
        self.offloaded_seconds += other.offloaded_seconds


@dataclass(frozen=True)
class RecoverySample:
    """One calibration point: predicted vs measured recovery cost.

    ``state`` says which estimator was exercised — ``"disk"`` compares
    Eq. 3's read-back cost against the charged disk read, ``"gone"``
    compares Eq. 4's recursive recompute against the virtual time the
    lineage recomputation actually took, and ``"remote"`` compares the
    remote-tier pull model against the charged remote read.
    """

    rdd_id: int
    split: int
    state: str  # "disk" | "gone" | "remote"
    predicted_seconds: float
    measured_seconds: float

    @property
    def relative_error(self) -> float:
        denom = max(abs(self.measured_seconds), 1e-12)
        return abs(self.predicted_seconds - self.measured_seconds) / denom


@dataclass
class ExecutorCacheStats:
    """Cache-event counters for one executor."""

    evictions_to_disk: int = 0
    unpersists: int = 0
    evicted_bytes_to_disk: float = 0.0
    evicted_bytes_discarded: float = 0.0
    prefetches: int = 0

    @property
    def eviction_count(self) -> int:
        """Evictions of either kind (spill or discard)."""
        return self.evictions_to_disk + self.unpersists

    @property
    def evicted_bytes(self) -> float:
        return self.evicted_bytes_to_disk + self.evicted_bytes_discarded


class MetricsCollector:
    """Run-wide aggregation of task metrics and cache events."""

    def __init__(self) -> None:
        self.total = TaskMetrics()
        self.per_job: dict[int, TaskMetrics] = defaultdict(TaskMetrics)
        self.per_executor: dict[int, TaskMetrics] = defaultdict(TaskMetrics)
        self.executor_cache: dict[int, ExecutorCacheStats] = defaultdict(ExecutorCacheStats)
        self.task_count = 0
        self.job_count = 0
        # Disk-store occupancy tracking (bytes of *cached* data on disk).
        self.disk_bytes_current: float = 0.0
        self.disk_bytes_peak: float = 0.0
        self.disk_bytes_written_total: float = 0.0
        # Extra serial overheads added to the timeline outside tasks
        # (profiling phase, ILP-triggered migrations).
        self.overhead_seconds: float = 0.0
        self.profiling_seconds: float = 0.0
        self.ilp_solves: int = 0
        self.ilp_migrations: int = 0
        # Decision-layer hot-path counters (PR 3): how much work the cache
        # manager did to reach its decisions.  ``victim_candidates_scanned``
        # counts sorted residents walked during victim selection,
        # ``victim_index_rekeys`` the order keys computed for the sort; the
        # memo counters track reads of the epoch cost memo.
        self.cost_memo_hits: int = 0
        self.cost_memo_misses: int = 0
        self.victim_candidates_scanned: int = 0
        self.victim_selections: int = 0
        self.victim_index_rekeys: int = 0
        self.ilp_nodes: int = 0
        # Data-plane counters (PR 4): narrow-chain fusion and the per-task
        # ``bytes_for`` memo.  ``chains_fused`` counts distinct fused plans
        # per stage epoch; ``partitions_pipelined`` counts single-pass
        # partition executions that elided their intermediates.
        self.chains_fused: int = 0
        self.partitions_pipelined: int = 0
        self.bytes_for_memo_hits: int = 0
        self.bytes_for_memo_misses: int = 0
        # Columnar data-plane counters (``repro.storage``): partitions
        # encoded as record batches at cache time (and structural
        # rejections), fused chains compiled to vectorized kernels, the
        # partition executions those kernels handled (vs per-split
        # fallbacks to the iterator pipeline), and memory<->disk codec
        # transitions on tier movement.
        self.columnar_batches_encoded: int = 0
        self.columnar_encode_rejected: int = 0
        self.kernel_chains_compiled: int = 0
        self.kernel_partitions: int = 0
        self.kernel_fallbacks: int = 0
        self.codec_transitions: int = 0
        # Fault-injection and recovery counters (the ``repro.faults``
        # layer).  ``stage_resubmits`` also counts fault-free shuffle
        # regeneration (retention cleanup) — stage re-execution is the
        # same recovery path either way.  The ``fault_*_seconds`` ledgers
        # are slot-occupancy overhead outside the TaskMetrics buckets
        # (wasted doomed-attempt time, retry backoff, straggler stretch).
        self.faults_injected: int = 0
        self.executor_crashes: int = 0
        self.blocks_lost: int = 0
        self.bytes_lost: float = 0.0
        self.shuffle_outputs_lost: int = 0
        self.fetch_failures: int = 0
        self.task_reattempts: int = 0
        self.stage_resubmits: int = 0
        self.straggler_tasks_slowed: int = 0
        self.fault_wasted_seconds: float = 0.0
        self.fault_backoff_seconds: float = 0.0
        self.fault_straggler_seconds: float = 0.0
        self.recovery_samples: list[RecoverySample] = []
        # Job-service counters (``repro.service``): admitted applications,
        # jobs the shared driver executed on their behalf, structurally
        # deduped RDD registrations, and cross-tenant cache hits (a job
        # reading a block another tenant materialized).
        self.service_apps: int = 0
        self.service_jobs: int = 0
        self.gids_deduped: int = 0
        self.shared_hits: int = 0
        self.shared_hit_bytes: float = 0.0
        # Cache-access counters (``repro.obs``): every hit on a cached
        # block and every miss on a cache candidate, maintained even when
        # tracing is off so the occupancy sampler can compute hit ratios
        # without replaying a trace.
        self.cache_hits: int = 0
        self.cache_misses: int = 0
        # Sharded-engine counters (``repro.shard``): stage tasks handed to
        # shard workers in bulk, virtual-time barrier synchronizations
        # (one per dispatched superstep), block-residency deltas drained
        # to workers at those barriers, and reduce-split bucket fetches
        # the coordinator served to workers from registered map outputs.
        # All zero with ``BlazeConfig.sharded_engine`` off.
        self.tasks_dispatched: int = 0
        self.barrier_syncs: int = 0
        self.residency_deltas: int = 0
        self.shuffle_fetch_rpcs: int = 0
        # Elastic-fleet and remote-memory-tier counters (``repro.elastic``):
        # scale events applied by the fleet controller, executors joining /
        # leaving the fleet, blocks migrated off draining executors, and
        # the remote tier's demotion/promotion/hit traffic.  All zero without
        # a scale schedule.
        self.scale_events: int = 0
        self.scale_ups: int = 0
        self.scale_downs: int = 0
        self.preemptions: int = 0
        self.executors_added: int = 0
        self.executors_removed: int = 0
        self.blocks_migrated: int = 0
        self.migrated_bytes: float = 0.0
        self.remote_demotions: int = 0
        self.remote_promotions: int = 0
        self.remote_tier_hits: int = 0
        self.remote_bytes_read: float = 0.0
        self.remote_bytes_written: float = 0.0

    # ------------------------------------------------------------------
    def record_task(self, job_id: int, executor_id: int, tm: TaskMetrics) -> None:
        """Fold one finished task's ledger into the aggregates."""
        self.total.merge(tm)
        self.per_job[job_id].merge(tm)
        self.per_executor[executor_id].merge(tm)
        self.task_count += 1

    def record_job(self) -> None:
        self.job_count += 1

    # ------------------------------------------------------------------
    def record_eviction_to_disk(self, executor_id: int, size: float) -> None:
        stats = self.executor_cache[executor_id]
        stats.evictions_to_disk += 1
        stats.evicted_bytes_to_disk += size

    def record_unpersist(self, executor_id: int, size: float, *, evicted: bool) -> None:
        """A block dropped from storage; ``evicted`` when capacity-driven."""
        stats = self.executor_cache[executor_id]
        if evicted:
            stats.unpersists += 1
            stats.evicted_bytes_discarded += size

    def record_prefetch(self, executor_id: int) -> None:
        self.executor_cache[executor_id].prefetches += 1

    def record_disk_put(self, size: float) -> None:
        self.disk_bytes_current += size
        self.disk_bytes_written_total += size
        self.disk_bytes_peak = max(self.disk_bytes_peak, self.disk_bytes_current)

    def record_disk_remove(self, size: float) -> None:
        self.disk_bytes_current = max(0.0, self.disk_bytes_current - size)

    def record_block_lost(self, executor_id: int, size: float) -> None:
        """A block vanished by fault (not an eviction, not an unpersist)."""
        self.blocks_lost += 1
        self.bytes_lost += size

    def record_recovery_sample(
        self, rdd_id: int, split: int, state: str,
        predicted_seconds: float, measured_seconds: float,
    ) -> None:
        self.recovery_samples.append(
            RecoverySample(rdd_id, split, state, predicted_seconds, measured_seconds)
        )

    # ------------------------------------------------------------------
    @property
    def total_evictions(self) -> int:
        return sum(s.eviction_count for s in self.executor_cache.values())

    @property
    def total_recompute_seconds(self) -> float:
        return self.total.recompute_seconds

    def evicted_bytes_by_executor(self) -> dict[int, float]:
        """Fig. 3's series: evicted bytes per executor."""
        return {eid: s.evicted_bytes for eid, s in sorted(self.executor_cache.items())}

    def decision_counters(self) -> dict[str, int]:
        """Decision- and data-plane work counters (scans, memos, fusion)."""
        return {
            "cost_memo_hits": self.cost_memo_hits,
            "cost_memo_misses": self.cost_memo_misses,
            "victim_candidates_scanned": self.victim_candidates_scanned,
            "victim_selections": self.victim_selections,
            "victim_index_rekeys": self.victim_index_rekeys,
            "ilp_nodes": self.ilp_nodes,
            "chains_fused": self.chains_fused,
            "partitions_pipelined": self.partitions_pipelined,
            "bytes_for_memo_hits": self.bytes_for_memo_hits,
            "bytes_for_memo_misses": self.bytes_for_memo_misses,
            "columnar_batches_encoded": self.columnar_batches_encoded,
            "columnar_encode_rejected": self.columnar_encode_rejected,
            "kernel_chains_compiled": self.kernel_chains_compiled,
            "kernel_partitions": self.kernel_partitions,
            "kernel_fallbacks": self.kernel_fallbacks,
            "codec_transitions": self.codec_transitions,
        }

    def fault_counters(self) -> dict[str, float]:
        """Fault-injection and recovery counters (``repro.faults``)."""
        return {
            "faults_injected": self.faults_injected,
            "executor_crashes": self.executor_crashes,
            "blocks_lost": self.blocks_lost,
            "bytes_lost": self.bytes_lost,
            "shuffle_outputs_lost": self.shuffle_outputs_lost,
            "fetch_failures": self.fetch_failures,
            "task_reattempts": self.task_reattempts,
            "stage_resubmits": self.stage_resubmits,
            "straggler_tasks_slowed": self.straggler_tasks_slowed,
            "fault_wasted_seconds": self.fault_wasted_seconds,
            "fault_backoff_seconds": self.fault_backoff_seconds,
            "fault_straggler_seconds": self.fault_straggler_seconds,
        }

    def service_counters(self) -> dict[str, float]:
        """Job-service counters (``repro.service``)."""
        return {
            "service_apps": self.service_apps,
            "service_jobs": self.service_jobs,
            "gids_deduped": self.gids_deduped,
            "shared_hits": self.shared_hits,
            "shared_hit_bytes": self.shared_hit_bytes,
        }

    def access_counters(self) -> dict[str, int]:
        """Cache-access counters (``repro.obs``)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def shard_counters(self) -> dict[str, int]:
        """Sharded-engine counters (``repro.shard``)."""
        return {
            "tasks_dispatched": self.tasks_dispatched,
            "barrier_syncs": self.barrier_syncs,
            "residency_deltas": self.residency_deltas,
            "shuffle_fetch_rpcs": self.shuffle_fetch_rpcs,
        }

    def elastic_counters(self) -> dict[str, float]:
        """Elastic-fleet and remote-tier counters (``repro.elastic``)."""
        return {
            "scale_events": self.scale_events,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "preemptions": self.preemptions,
            "executors_added": self.executors_added,
            "executors_removed": self.executors_removed,
            "blocks_migrated": self.blocks_migrated,
            "migrated_bytes": self.migrated_bytes,
            "remote_demotions": self.remote_demotions,
            "remote_promotions": self.remote_promotions,
            "remote_tier_hits": self.remote_tier_hits,
            "remote_bytes_read": self.remote_bytes_read,
            "remote_bytes_written": self.remote_bytes_written,
        }

    def breakdown(self) -> dict[str, float]:
        """Accumulated task time split like Fig. 4 / Fig. 10."""
        return {
            "disk_io_seconds": self.total.disk_io_seconds,
            "compute_shuffle_seconds": self.total.compute_shuffle_seconds,
            "total_seconds": self.total.total_seconds,
        }
