"""Run one (system, workload) cell end to end and collect every metric
the evaluation figures need.

A cell runs the dependency-extraction phase first when the system calls
for it (Blaze and its ablations), charges its virtual duration into the
application completion time (ACT), then executes the real workload and
snapshots the metric ledgers through the :meth:`BlazeContext.report`
façade.  Pass a :class:`~repro.tracing.InMemoryTracer` to capture a full
span/event trace of the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..config import BlazeConfig, ClusterConfig, GiB, MiB, DiskConfig, paper_cluster
from ..core.profiler import run_dependency_extraction
from ..dataflow.context import BlazeContext
from ..elastic.schedule import ScaleSchedule
from ..faults.schedule import FaultSchedule
from ..systems.presets import make_system
from ..tracing import NULL_TRACER, RunReport, Tracer
from ..workloads.base import Workload, WorkloadResult
from ..workloads.registry import make_workload


@dataclass
class RunResult:
    """Everything measured from one cell."""

    system: str
    workload: str
    scale: str
    seed: int
    #: end-to-end application completion time, profiling included
    act_seconds: float
    profiling_seconds: float
    #: accumulated task-time split (Fig. 4 / Fig. 10)
    disk_io_seconds: float
    compute_shuffle_seconds: float
    total_task_seconds: float
    recompute_seconds: float
    recompute_by_job: dict[int, float]
    #: cache events
    eviction_count: int
    evictions_to_disk: int
    unpersists: int
    evicted_bytes_by_executor: dict[int, float]
    #: cached-data-on-disk accounting (the 95 % reduction claim)
    disk_bytes_written_total: float
    disk_bytes_peak: float
    ilp_solves: int
    ilp_migrations: int
    workload_result: WorkloadResult | None = None
    #: the full report (carries the trace when the cell was traced)
    report: RunReport | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def evicted_bytes_total(self) -> float:
        return sum(self.evicted_bytes_by_executor.values())


def tiny_cluster() -> ClusterConfig:
    """Cluster matched to the registry's ``tiny`` workload byte models."""
    return ClusterConfig(
        num_executors=4,
        slots_per_executor=2,
        memory_store_bytes=48 * MiB,
        disk=DiskConfig(capacity_bytes=20 * GiB),
    )


def cluster_for_scale(scale: str) -> ClusterConfig:
    return tiny_cluster() if scale == "tiny" else paper_cluster()


def run_experiment(
    system: str,
    workload: "str | Workload",
    scale: str = "paper",
    seed: int = 0,
    cluster_config: ClusterConfig | None = None,
    blaze_config: BlazeConfig | None = None,
    tracer: Tracer | None = None,
    fault_schedule: "FaultSchedule | None" = None,
    scale_schedule: "ScaleSchedule | None" = None,
) -> RunResult:
    """Execute one evaluation cell and return its measurements.

    ``workload`` is a registry name or an already-parameterized
    :class:`~repro.workloads.base.Workload` instance (used by harnesses
    that vary parameters beyond the scale presets, e.g. the pressure
    cells of ``bench/`` and the tests).  Pass a ``tracer`` (e.g. an
    :class:`~repro.tracing.InMemoryTracer`) to capture the trace; without
    one the cell runs untraced.

    A ``fault_schedule`` runs the cell under deterministic fault
    injection; the fault/recovery counters land in
    ``report.fault_counters``.  A ``scale_schedule`` adds the
    remote-memory tier and, when non-empty, runs the cell on an elastic
    fleet; the scale/migration counters land in
    ``report.elastic_counters``.
    """
    spec = make_system(system)
    wl = workload if isinstance(workload, Workload) else make_workload(workload, scale)
    config = cluster_config or cluster_for_scale(scale)
    bcfg = blaze_config or BlazeConfig()
    if tracer is None:
        tracer = NULL_TRACER

    profile = None
    profiling_seconds = 0.0
    if spec.needs_profile:
        profile = run_dependency_extraction(
            wl.profiling_run_fn(bcfg.profiling_sample_fraction), bcfg, seed=seed,
            tracer=tracer,
        )
        profiling_seconds = profile.virtual_seconds

    manager = spec.build(profile=profile, blaze_config=bcfg)
    ctx = BlazeContext(
        config, manager, seed=seed, tracer=tracer, blaze_config=bcfg,
        fault_schedule=fault_schedule, scale_schedule=scale_schedule,
    )
    wl_result = wl.run(ctx)
    ctx.note_profiling_seconds(profiling_seconds)
    report = ctx.report()
    ctx.stop()

    return RunResult(
        system=system,
        workload=workload if isinstance(workload, str) else wl.name,
        scale=scale,
        seed=seed,
        act_seconds=report.act_seconds + profiling_seconds,
        profiling_seconds=profiling_seconds,
        disk_io_seconds=report.disk_io_seconds,
        compute_shuffle_seconds=report.compute_shuffle_seconds,
        total_task_seconds=report.total_seconds,
        recompute_seconds=report.recompute_seconds,
        recompute_by_job=dict(report.recompute_seconds_by_job),
        eviction_count=report.eviction_count,
        evictions_to_disk=report.evictions_to_disk,
        unpersists=report.unpersists,
        evicted_bytes_by_executor=report.evicted_bytes_by_executor,
        disk_bytes_written_total=report.disk_bytes_written_total,
        disk_bytes_peak=report.disk_bytes_peak,
        ilp_solves=report.ilp_solves,
        ilp_migrations=report.ilp_migrations,
        workload_result=wl_result,
        report=report,
    )


#: process-wide memo so Fig. 9/10 (and the benches) share grid runs
_CACHE: dict[tuple, RunResult] = {}


def run_cached(system: str, workload: str, scale: str = "paper", seed: int = 0) -> RunResult:
    """Memoized :func:`run_experiment` (default configs only)."""
    key = (system, workload, scale, seed)
    if key not in _CACHE:
        _CACHE[key] = run_experiment(system, workload, scale=scale, seed=seed)
    return _CACHE[key]


def clear_cache() -> None:
    _CACHE.clear()
