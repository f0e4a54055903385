"""The dependency-extraction phase (paper sections 5.1 and 7.5).

Before the real execution, Blaze runs the workload on a minuscule sample of
the input (< 1 MB in the paper) to capture the *structure* of the whole
application — every job's stage DAG and dataset dependencies — plus rough
per-partition metric priors.  The phase is bounded by a timeout; a
truncated capture is later extended by the CostLineage's pattern induction.

The profiling run executes on a single-executor throwaway cluster with
memory sized to avoid evictions, so it is cheap and side-effect free.  Its
virtual duration is charged to the real run's completion time (the paper
reports < 4 % overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..cluster.blocks import Block
from ..cluster.cachemanager import CacheManager
from ..config import BlazeConfig, ClusterConfig, DiskConfig, GiB
from ..errors import ProfilingError
from ..metrics.collector import TaskMetrics
from ..tracing.tracer import NULL_TRACER, PROFILER_PID, Tracer
from .cost_lineage import CostLineage, JobCapture, capture_job


@dataclass
class LineageProfile:
    """Everything the dependency-extraction phase learned.

    Sizes and compute times are already scaled up to full-input estimates
    (via each operator's own cost/size models evaluated at the scaled
    cardinalities).
    """

    captures: list[JobCapture] = field(default_factory=list)
    parents: dict[int, tuple[int, ...]] = field(default_factory=dict)
    num_splits: dict[int, int] = field(default_factory=dict)
    names: dict[int, str] = field(default_factory=dict)
    ser_factors: dict[int, float] = field(default_factory=dict)
    sizes: dict[tuple[int, int], float] = field(default_factory=dict)
    computes: dict[tuple[int, int], float] = field(default_factory=dict)
    truncated: bool = False
    virtual_seconds: float = 0.0

    @property
    def num_jobs(self) -> int:
        return len(self.captures)

    def seed(self, lineage: CostLineage) -> None:
        """Load this profile into a CostLineage as estimated knowledge.

        Structure and metric priors are per dataset, shared by whichever
        application touches it; the captures become the lineage's first
        stream template — what the application about to start, and any
        later instance of it, is predicted to reference.
        """
        for rdd_id, parent_ids in self.parents.items():
            lineage.register_rdd(
                rdd_id,
                parent_ids,
                self.num_splits.get(rdd_id, 1),
                name=self.names.get(rdd_id, ""),
                ser_factor=self.ser_factors.get(rdd_id, 1.0),
            )
        lineage.add_template(self.captures, complete=not self.truncated)
        for (rdd_id, split), size in self.sizes.items():
            lineage.prior.observe(rdd_id, split, size_bytes=size)
        for (rdd_id, split), seconds in self.computes.items():
            lineage.prior.observe(rdd_id, split, compute_seconds=seconds)


class _ProfilingTimeout(ProfilingError):
    """Internal: the sample run exceeded its virtual-time budget."""


class _RecordingCacheManager(CacheManager):
    """Cache manager for the sample run: record everything, evict nothing.

    Caching honors annotations (so the job/stage structure — including
    skipped stages — mirrors the real run) but memory is sized to make
    evictions impossible.
    """

    name = "profiler"

    def __init__(
        self, scale: float, timeout_seconds: float, trace_to: Tracer = NULL_TRACER
    ) -> None:
        super().__init__()
        if scale < 1.0:
            raise ProfilingError("profile scale factor must be >= 1")
        self.scale = scale
        self.timeout_seconds = timeout_seconds
        #: the *real run's* tracer; the sandbox context itself is untraced,
        #: but the phase reports its job captures with explicit sandbox
        #: timestamps on the profiler's trace process
        self._trace_to = trace_to
        self.profile = LineageProfile()
        self._materialized_ids: set[int] = set()

    # -- candidate selection mirrors plain Spark during the sample run
    def is_cache_candidate(self, rdd) -> bool:
        return rdd.is_annotated_cached

    def will_never_store(self, rdd) -> bool:
        # ``handle_cache`` below only ever admits annotated datasets, so
        # the sample run may fuse unannotated narrow chains.  The profile
        # is invariant to the elision: ``on_partition_computed`` receives
        # the exact unfused cardinalities/charges (keyed dicts, order-
        # insensitive) and the captures are purely structural.
        return not rdd.is_annotated_cached

    def on_job_submit(self, job) -> None:
        shuffle = self.cluster.shuffle

        def skipped(stage) -> bool:
            return not stage.is_result and shuffle.is_complete(stage.shuffle_dep)

        self.profile.captures.append(
            capture_job(job, is_stage_skipped=skipped, materialized=self._materialized_ids)
        )
        if self._trace_to.enabled:
            self._trace_to.instant(
                "profiling.job", "profiling",
                ts=self.cluster.clock.now, pid=PROFILER_PID,
                job_id=job.job_id, stages=len(job.stages),
            )
        for rdd in job.lineage_rdds():
            self.profile.parents.setdefault(
                rdd.rdd_id, tuple(p.rdd_id for p in rdd.parents)
            )
            self.profile.num_splits[rdd.rdd_id] = rdd.num_partitions
            self.profile.names[rdd.rdd_id] = rdd.name
            self.profile.ser_factors[rdd.rdd_id] = rdd.size_model.ser_factor

    def on_job_complete(self, job) -> None:
        if self.cluster.clock.now > self.timeout_seconds:
            raise _ProfilingTimeout(
                f"dependency extraction exceeded {self.timeout_seconds}s"
            )

    def on_partition_computed(
        self, rdd, split, n_in, n_out, compute_seconds, size_weight
    ) -> None:
        """Scale the sampled cardinalities through the operator's own models."""
        key = (rdd.rdd_id, split)
        full_in = int(round(n_in * self.scale))
        full_out = int(round(n_out * self.scale))
        self.profile.sizes[key] = rdd.size_model.bytes_for(size_weight * self.scale)
        self.profile.computes[key] = rdd.op_cost.seconds(full_in, full_out)

    def handle_cache(self, executor, rdd, split, data, size_bytes, tm: TaskMetrics) -> None:
        bm = executor.bm
        if not bm.memory.fits(size_bytes):
            return  # never evict during profiling
        block = Block(
            block_id=(rdd.rdd_id, split),
            data=data,
            size_bytes=size_bytes,
            ser_factor=rdd.size_model.ser_factor,
            rdd_name=rdd.name,
        )
        bm.insert_memory(block)


def profiling_cluster_config() -> ClusterConfig:
    """The single-executor sandbox the sample run executes on."""
    return ClusterConfig(
        num_executors=1,
        slots_per_executor=16,
        memory_store_bytes=1024 * GiB,
        disk=DiskConfig(capacity_bytes=1024 * GiB),
    )


def run_dependency_extraction(
    scaled_run_fn: Callable[[Any], None],
    config: BlazeConfig,
    seed: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> LineageProfile:
    """Execute the sampled workload and return the captured profile.

    ``scaled_run_fn(ctx)`` must run the workload *already scaled down* by
    ``config.profiling_sample_fraction`` (the caller owns the scaling so the
    profiler stays workload-agnostic).  A timeout truncates the capture
    rather than failing it.

    ``tracer`` (the real run's tracer, if any) receives the phase summary:
    per-captured-job instants plus one ``profiling`` span covering the
    phase's virtual duration, all on the profiler's trace process.
    """
    from ..dataflow.context import BlazeContext  # local import: layer cycle

    manager = _RecordingCacheManager(
        scale=1.0 / config.profiling_sample_fraction,
        timeout_seconds=config.profiling_timeout_seconds,
        trace_to=tracer,
    )
    ctx = BlazeContext(profiling_cluster_config(), manager, seed=seed, blaze_config=config)
    try:
        scaled_run_fn(ctx)
    except _ProfilingTimeout:
        manager.profile.truncated = True
    finally:
        ctx.stop()
    profile = manager.profile
    profile.virtual_seconds = min(ctx.now, config.profiling_timeout_seconds)
    if tracer.enabled:
        tracer.complete(
            "profiling", "profiling",
            ts=0.0, dur=profile.virtual_seconds, pid=PROFILER_PID,
            jobs=profile.num_jobs, truncated=profile.truncated,
        )
    return profile
