"""The four benchmark workloads and the one way to run them.

Every workload runs as ``blaze`` against the ``spark_mem_disk``
reference on identical generated inputs.  ``--seed`` draws the *content*
of the inputs (who links to whom, record keys and values, when
applications arrive); the *shape* constants below (partition counts,
degree sequence, rows per partition, arrival horizon) are part of the
workload, because redrawing a heavy-tailed degree sequence per seed moves
ACT by 25 % and would drown every bound in BENCHMARK.json.

Sizing constants were timed on a 2-core Linux 6.18 host, CPython 3.11:
each untraced ``blaze`` run takes 5-7 s there (see README.md for why
they are not the 15-25 s the issue first asked for).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    GiB,
    MiB,
    ServiceConfig,
    paper_cluster,
)
from repro.core import profiler
from repro.dataflow.operators import OpCost, SizeModel
from repro.experiments import runner
from repro.service import JobService
from repro.sim.rng import make_rng
from repro.systems.presets import make_system
from repro.workloads.base import Workload, WorkloadResult, replace_params, scale_count
from repro.workloads.chain import ChainWorkload
from repro.workloads.datagen import powerlaw_out_degrees
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.registry import make_workload

BLAZE = "blaze"
REFERENCE = "spark_mem_disk"

#: constant stream the PageRank degree sequence is drawn from (shape, not
#: content — see the module docstring)
_DEGREE_STREAM = 0xDE6


# ----------------------------------------------------------------------
# What one run hands back
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one (system, workload) run produced."""

    #: one value per application, in submission order; an application
    #: that raised contributes the exception's repr
    results: tuple
    report: Any  # repro.tracing.RunReport
    #: ACT including profiling; on the stream, makespan plus profiling
    act_virtual_s: float
    #: per-application latency, timed from its due arrival
    latencies: tuple[float, ...]
    #: driver jobs per application, same order as ``results``
    jobs_per_app: tuple[int, ...]
    #: due arrival of each application on the virtual clock
    arrivals: tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class Scenario:
    """One workload at one seed: ``run(system)`` executes it once."""

    name: str
    run: Callable[[str], Outcome]
    #: the bench-owned class whose ``run`` builds the DAG (traced as
    #: ``workloads.dag_build``)
    workload_class: type
    #: regime guard: every computed metric by name -> violated conditions.
    #: Host-time entries (``*_s`` of the traced run) are present only in
    #: a traced invocation.
    guard: Callable[[dict], list[str]]


# ----------------------------------------------------------------------
# Shared runners
# ----------------------------------------------------------------------
def _run_single(system: str, wl: Workload, cluster: ClusterConfig, seed: int) -> Outcome:
    r = runner.run_experiment(system, wl, seed=seed, cluster_config=cluster)
    return Outcome(
        results=(r.workload_result.final_value,),
        report=r.report,
        act_virtual_s=r.act_seconds,
        latencies=(r.act_seconds,),
        jobs_per_app=(r.report.job_count,),
    )


def _run_stream(
    system: str,
    wl: Workload,
    cluster: ClusterConfig,
    seed: int,
    arrivals: tuple[float, ...],
    tenants: int,
) -> Outcome:
    """Open loop: every application is submitted with its due arrival time.

    Arrivals are virtual, so the generator is never late; latency is
    completion minus due arrival.  One profile serves every application —
    dedup maps all tenants' identical lineages onto the same global ids.
    """
    spec = make_system(system)
    bcfg = BlazeConfig()
    profile = None
    if spec.needs_profile:
        profile = profiler.run_dependency_extraction(
            wl.profiling_run_fn(bcfg.profiling_sample_fraction), bcfg, seed=seed
        )
    profiling_s = profile.virtual_seconds if profile is not None else 0.0
    service = JobService(
        cluster,
        spec.build(profile=profile, blaze_config=bcfg),
        seed=seed,
        blaze_config=bcfg,
        service_config=ServiceConfig(inter_job_policy="fair"),
    )

    def app_fn(client):
        return wl.run(client).final_value

    for i, due in enumerate(arrivals):
        service.submit(app_fn, tenant=f"tenant{i % tenants}", arrival_time=due)
    handles = service.run()
    service.metrics.profiling_seconds = profiling_s
    report = handles[0].report()
    results = []
    for h in handles:
        try:
            results.append(h.result())
        except Exception as exc:  # the application's own failure: counted, not fatal
            results.append(repr(exc))
    outcome = Outcome(
        results=tuple(results),
        report=report,
        act_virtual_s=service.now + profiling_s,
        latencies=tuple(h.latency for h in handles),
        jobs_per_app=tuple(len(h.job_records) for h in handles),
        arrivals=arrivals,
    )
    service.shutdown()
    return outcome


# ----------------------------------------------------------------------
# pr_pressure / svc_stream: registry PageRank on a fixed-degree graph
# ----------------------------------------------------------------------
def fixed_degree_edges(num_vertices: int, num_partitions: int, avg_degree: float):
    """The registry's power-law graph with the degree sequence held fixed.

    Out-degrees come from a constant stream (same cap and normalisation
    as ``repro.workloads.datagen.graph_edges_generator``); the run's
    ``rng`` — a function of ``--seed`` — draws each vertex's distinct
    destinations.  Partition weights therefore repeat across seeds while
    ranks, shuffle contents and reduce-side sizes do not.
    """
    alpha = 2.2
    cap = max(16, num_vertices // 16)
    probe = powerlaw_out_degrees(
        4096, np.random.Generator(np.random.PCG64(20240422)), alpha=alpha, max_degree=cap
    )
    scale = avg_degree / float(probe.mean())

    def gen(split: int, rng: np.random.Generator):
        sources = np.arange(split, num_vertices, num_partitions)
        shape = np.random.Generator(np.random.PCG64([_DEGREE_STREAM, split]))
        degrees = powerlaw_out_degrees(len(sources), shape, alpha=alpha, max_degree=cap)
        degrees = np.clip(np.round(degrees * scale).astype(np.int64), 1, num_vertices - 1)
        edges = []
        for src, deg in zip(sources.tolist(), degrees.tolist()):
            dsts = np.sort(rng.choice(num_vertices - 1, size=deg, replace=False))
            edges.extend((src, d + (d >= src)) for d in dsts.tolist())  # skip self
        return edges

    return gen


class _EdgeSourceSwap:
    """A client whose ``source()`` ignores the generator it is handed.

    ``PageRankWorkload.run`` builds exactly one source (the edges); this
    lets the registry workload run unmodified on the fixed-degree graph.
    """

    def __init__(self, ctx, gen) -> None:
        self._ctx = ctx
        self._gen = gen

    def __getattr__(self, name: str):
        return getattr(self._ctx, name)

    def source(self, _gen, num_partitions: int, **kwargs):
        return self._ctx.source(self._gen, num_partitions, **kwargs)


class FixedDegreePageRank(PageRankWorkload):
    """Registry PageRank, edges from :func:`fixed_degree_edges`."""

    def run(self, ctx) -> WorkloadResult:
        gen = fixed_degree_edges(self.num_vertices, self.num_partitions, self.avg_degree)
        return super().run(_EdgeSourceSwap(ctx, gen))


def _as_fixed_degree(wl: PageRankWorkload, **changes) -> FixedDegreePageRank:
    return FixedDegreePageRank(**{**dataclasses.asdict(wl), **changes})


#: paper PageRank with partitions x8 (160) on paper_cluster(): working set
#: far past the memory store
PR_PARTITION_FACTOR = 8
PR_ITERATIONS = 10


def pr_pressure(seed: int, smoke: bool) -> Scenario:
    base = make_workload("pr", "paper")
    wl = _as_fixed_degree(
        base,
        num_partitions=base.num_partitions * (2 if smoke else PR_PARTITION_FACTOR),
        iterations=2 if smoke else PR_ITERATIONS,
    )
    cluster = paper_cluster()

    def guard(c: dict) -> list[str]:
        bad = []
        if not c["cache.evictions"] > 0:
            bad.append("pr_pressure: no evictions")
        if not c["core.ilp.solves"] > 0:
            bad.append("pr_pressure: no ILP solves")
        return bad

    return Scenario(
        "pr_pressure", lambda system: _run_single(system, wl, cluster, seed),
        FixedDegreePageRank, guard,
    )


# ----------------------------------------------------------------------
# chain_kernels: cached source read through fused columnar kernels
# ----------------------------------------------------------------------
@dataclass
class KernelChain(ChainWorkload):
    """``ChainWorkload`` with seed-drawn records and a ``len`` action.

    The registry's ``sum(part)`` action spends 42 % of host time
    iterating a ``ColumnarBatch`` in the action closure; with ``len`` the
    run is cache reads feeding fused kernel passes, which is what this
    workload exists to attribute.
    """

    name = "kernel_chain"

    def run(self, ctx) -> WorkloadResult:
        per = max(self.num_records // self.num_partitions, 1)
        model = SizeModel(bytes_per_element=self.record_bytes)
        src = ctx.source(
            lambda split, rng: list(
                zip(rng.integers(0, 100003, per).tolist(), rng.random(per).tolist())
            ),
            self.num_partitions,
            op_cost=OpCost(per_element_out=1e-3),
            size_model=model,
            name="events",
        )
        src.cache()
        ctx.run_job(src, lambda _s, part: len(part))

        total = 0
        for i in range(self.iterations):
            r = src
            for d in range(self.chain_depth - 2):
                r = r.map(
                    lambda kv, d=d: (kv[0], kv[1] + d),
                    op_cost=OpCost(per_element_in=1e-4), size_model=model,
                    name=f"stage{i}_{d}",
                )
            r = r.filter(
                lambda kv: kv[0] % 5 != 0,
                op_cost=OpCost(per_element_in=1e-4), size_model=model, name=f"keep{i}",
            )
            r = r.map(
                lambda kv: kv[1],
                op_cost=OpCost(per_element_in=1e-4), size_model=model, name=f"proj{i}",
            )
            total += sum(ctx.run_job(r, lambda _s, part: len(part)))
        return WorkloadResult(self.name, self.iterations, total)


CHAIN_RECORDS = 1 << 21
CHAIN_PARTITIONS = 64
CHAIN_DEPTH = 24
CHAIN_ITERATIONS = 40


def chain_kernels(seed: int, smoke: bool) -> Scenario:
    cluster = paper_cluster()
    records = 1 << 14 if smoke else CHAIN_RECORDS
    wl = KernelChain(
        num_records=records,
        num_partitions=16 if smoke else CHAIN_PARTITIONS,
        chain_depth=8 if smoke else CHAIN_DEPTH,
        iterations=3 if smoke else CHAIN_ITERATIONS,
        # the source takes a quarter of fleet memory: zero evictions is the regime
        record_bytes=cluster.total_memory_store_bytes / 4 / records,
    )

    def guard(c: dict) -> list[str]:
        bad = []
        if c["cache.evictions"] != 0:
            bad.append("chain_kernels: evictions > 0")
        if not c["storage.kernels.partitions"] > 0:
            bad.append("chain_kernels: no kernel partitions")
        if c["storage.kernels.fallback_ratio"] != 0:
            bad.append("chain_kernels: kernel fallbacks")
        if c.get("workloads.action_s", 0.0) > 0.10 * c.get("trace.root_s", 0.0):
            bad.append("chain_kernels: action closure above 10 % of traced wall")
        return bad

    return Scenario(
        "chain_kernels", lambda system: _run_single(system, wl, cluster, seed),
        KernelChain, guard,
    )


# ----------------------------------------------------------------------
# wide_churn: many tiny tasks, per-task engine overhead
# ----------------------------------------------------------------------
CHURN_PARTITIONS = 4096
CHURN_EXECUTORS = 32
CHURN_ITERATIONS = 4


@dataclass
class WideChurn(Workload):
    """Iterative ``map -> reduce_by_key`` over thousands of tiny partitions.

    User functions are trivial and partitions hold a handful of rows, so
    host time is per-task overhead in the scheduler, driver and shuffle.
    The cached base carries an explicit cost and size so that it is ~2.5x
    fleet memory and expensive to rebuild: with default models Blaze
    caches nothing and profiling is 85 % of ACT.
    """

    num_partitions: int = CHURN_PARTITIONS
    rows_per_partition: int = 4
    iterations: int = CHURN_ITERATIONS
    key_space: int = 1 << 16
    base_bytes_per_row: float = 1.0 * MiB
    base_cost_per_row: float = 0.25

    name = "wide_churn"

    def scaled(self, fraction: float) -> "WideChurn":
        return replace_params(
            self, rows_per_partition=scale_count(self.rows_per_partition, fraction)
        )

    def run(self, ctx) -> WorkloadResult:
        rows, keys = self.rows_per_partition, self.key_space
        src = ctx.source(
            lambda _split, rng: list(
                zip(rng.integers(0, keys, rows).tolist(), rng.integers(0, 97, rows).tolist())
            ),
            self.num_partitions,
            name="rows",
        )
        base = src.map(
            lambda kv: (kv[0], kv[1] + 1),
            op_cost=OpCost(per_element_in=self.base_cost_per_row),
            size_model=SizeModel(bytes_per_element=self.base_bytes_per_row),
            name="base",
        ).cache()
        total = 0
        for i in range(self.iterations):
            total += sum(
                ctx.run_job(
                    base.map(lambda kv: (kv[0], kv[1] + 1), name=f"bump{i}").reduce_by_key(
                        lambda a, b: a + b,
                        num_partitions=max(self.num_partitions // 8, 1),
                        name=f"sums{i}",
                    ),
                    lambda _s, part: sum(v for _k, v in part),
                )
            )
        return WorkloadResult(self.name, self.iterations, total)


def wide_churn(seed: int, smoke: bool) -> Scenario:
    # smoke keeps the full size's 128 blocks per executor, and so its regime
    wl = WideChurn(num_partitions=256) if smoke else WideChurn()
    executors = 2 if smoke else CHURN_EXECUTORS
    block_bytes = wl.rows_per_partition * wl.base_bytes_per_row
    # The store holds a whole number of the equal-sized base blocks.  With
    # a fractional block of slack the ILP's fractional bound never meets
    # its incumbent, branch and bound runs to its 200k-node budget on
    # every solve, and core.ilp — not cluster.* — becomes the workload.
    blocks_in_memory = int(wl.num_partitions / executors / 2.5)
    cluster = ClusterConfig(
        num_executors=executors,
        slots_per_executor=2,
        memory_store_bytes=block_bytes * blocks_in_memory,
        disk=DiskConfig(capacity_bytes=100 * GiB),
    )

    def guard(c: dict) -> list[str]:
        bad = []
        if not 0.2 < c["cache.hit_ratio"] < 0.8:
            bad.append(f"wide_churn: hit ratio {c['cache.hit_ratio']:.3f} outside (0.2, 0.8)")
        if c["core.profiler.virtual_s"] > 0.10 * c["act_virtual_s"]:
            bad.append("wide_churn: profiling above 10 % of ACT")
        return bad

    return Scenario(
        "wide_churn", lambda system: _run_single(system, wl, cluster, seed), WideChurn, guard
    )


# ----------------------------------------------------------------------
# svc_stream: open-loop multi-tenant application stream
# ----------------------------------------------------------------------
SVC_APPS = 240
SVC_ITERATIONS = 3
SVC_TENANTS = 3
#: applications per virtual second; puts the reference at ~0.7 utilisation
SVC_RATE = 0.25
#: spawn key of the arrival stream, clear of every (rdd, split) key
_ARRIVAL_STREAM = 0xA881


def conditioned_poisson_arrivals(seed: int, count: int, rate: float) -> tuple[float, ...]:
    """``count`` Poisson arrivals conditioned on landing in ``count / rate`` s.

    A Poisson process conditioned on its count is ``count`` sorted
    uniforms, so the horizon — and with it the offered load — is the same
    at every seed while the gaps stay exponential-like.
    """
    rng = make_rng(seed, _ARRIVAL_STREAM)
    return tuple(np.sort(rng.random(count) * (count / rate)).tolist())


def svc_stream(seed: int, smoke: bool) -> Scenario:
    wl = _as_fixed_degree(
        make_workload("pr", "tiny"), iterations=2 if smoke else SVC_ITERATIONS
    )
    cluster = ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=24 * MiB,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )
    arrivals = conditioned_poisson_arrivals(seed, 12 if smoke else SVC_APPS, SVC_RATE)

    def guard(c: dict) -> list[str]:
        bad = []
        if c["ref.act_virtual_s"] > 1.1 * arrivals[-1]:
            bad.append("svc_stream: reference not sustainable at this rate")
        if not c["ref.shared_hits"] > 0:
            bad.append("svc_stream: reference has no shared hits")
        return bad

    return Scenario(
        "svc_stream",
        lambda system: _run_stream(system, wl, cluster, seed, arrivals, SVC_TENANTS),
        FixedDegreePageRank,
        guard,
    )


WORKLOADS: dict[str, Callable[[int, bool], Scenario]] = {
    "pr_pressure": pr_pressure,
    "chain_kernels": chain_kernels,
    "wide_churn": wide_churn,
    "svc_stream": svc_stream,
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (12 of 240 lie beyond p95)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]
