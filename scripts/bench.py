"""Engine benchmarks: fault-recovery (PR 5), observability (PR 7),
columnar-backend (PR 8), sharded-engine (PR 9) and elastic-fleet (PR 10)
hot paths.  (The decision layer, the fused data plane and the
multi-tenant job service are measured by the repository benchmark,
``bench/``: ``pr_pressure``, ``chain_kernels`` and ``svc_stream``.)

Five suites, one script:

- **faults** — each cell runs clean, then again under a seeded
  :class:`FaultSchedule` spanning 80% of the clean run's virtual
  makespan.  The faulted measurement reports the fault counters plus a
  ``converged`` flag (faulted final value == clean final value), so the
  recovery machinery's wall-clock overhead and correctness ride the same
  JSON as the other engine numbers;
- **obs** — the decision-bound pressure PageRank cell run with
  ``obs.enabled`` off then on.  The observability layer is a pure
  reader (decision audit log, occupancy sampler), so the cell reports
  the recording overhead as ``overhead_pct`` with
  ``observables_identical`` asserting the run itself did not move;
  ``tests/experiments/test_bench_smoke.py`` holds the overhead under
  10%.  Writes ``BENCH_pr7.json`` by default;
- **columnar** — the flagship columnar-eligible cell: a deep
  element-wise chain over cached (int, float) pairs, scaled so each
  partition holds thousands of rows, run with ``columnar_backend`` off
  (list partitions + per-record iterator pipeline) then on (numpy record
  batches + vectorized fused kernels).  Kernel engagement, encode
  counts, and codec transitions ride the counters; evictions and ILP
  node counts must match between the modes
  (``observables_identical``).  Writes ``BENCH_pr8.json`` by default;
- **scale** — the sharded-engine sweep (PR 9): executors x partitions
  cells (up to 1024 executors / 1M partitions) on a synthetic iterative
  chain and a synthetic PageRank, each run single-process, sharded with
  the in-process :class:`LocalShardTransport`, and sharded across
  ``multiprocessing`` workers.  The cached working set is modeled past
  the memory store, so each iteration re-derives churned partitions —
  compute the single-process engine pays every time and shard workers'
  retained stores pay once.  Full mode runs every measurement in its own
  subprocess under a wall-clock budget; a mode that exceeds it is
  recorded as ``dnf`` with speedups computed against the budget floor.
  Eviction and ILP-node counts must match across all three modes
  (``observables_identical`` — the sharded engine is observationally
  invisible, enforced byte-for-byte by the trace-identity suite).
  Writes ``BENCH_pr9.json`` by default;
- **elastic** — the elastic-fleet suite (PR 10): each cell first sweeps
  the workload over every fixed fleet size (the cost-per-job vs
  fleet-size Pareto, cost = provisioned executor-seconds = fleet size
  integrated over the virtual run), then replays it on an elastic fleet
  driven by a forced diurnal :class:`ScaleSchedule` (morning/evening
  scale-ups, midday/overnight scale-downs, one spot preemption) sized
  to the base fleet's virtual makespan.  The elastic run executes twice
  under an :class:`InMemoryTracer`; the JSONL traces must be
  byte-identical (``deterministic``), the final value must equal the
  fixed-base-fleet oracle's (``converged``), every fixed fleet size
  must compute the same answer (``results_identical``), and the
  schedule's counters must show every event class actually fired
  (``schedule_engaged``).  The diurnal fleet-seconds integral walks the
  ``fleet.scale`` trace instants.  Writes ``BENCH_pr10.json`` by
  default.

Every measurement also records its data-plane identity — ``backend``
("columnar" or "list"), ``codec``, and ``spill_codec`` — so cells from
different suites and PRs remain comparable after the columnar default
flipped on.

The obs and columnar flags are observationally invisible (enforced
byte-for-byte by ``tests/integration/test_trace_identity.py``), so every
delta is pure engine overhead.  Each of their cells cross-checks eviction
counts and ILP node counts between its two modes and reports
``observables_identical``.

Run:  PYTHONPATH=src python scripts/bench.py [--suite NAME] [--out FILE]
      PYTHONPATH=src python scripts/bench.py --smoke       # tiny, in-process
      PYTHONPATH=src python scripts/bench.py --profile ... # + cProfile top-N

Full mode executes every cell in a fresh subprocess so ``ru_maxrss`` is a
per-cell high-water mark; ``--smoke`` runs a shrunken matrix in-process
(no RSS; the tier-1 suite uses it to assert the counters move the right
way).  ``--profile`` adds one extra profiled run per measurement and
stores the top functions by cumulative time under ``profile_top``.
Output schema (faults shown; every suite is one top-level key)::

    {
      "seed": 3,
      "faults": {
        "scale": ...,
        "cells": [
          {"system": ..., "workload": ..., "num_partitions": ..., "seed": ...,
           "clean":   {"wall_seconds": ..., "evictions": ...,
                       "fault_counters": {...}, "act_seconds": ...},
           "faulted": {... same shape ..., "converged": true},
           "converged": true,
           "speedup": <clean wall / faulted wall>}
        ],
        "min_speedup": ..., "max_speedup": ...
      }
    }

The faults suite (PR 5) writes ``BENCH_pr5.json`` by default;
``--suite all`` writes ``BENCH_all.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    ElasticConfig,
    GiB,
    MiB,
    ObsConfig,
)
from repro.elastic import ScaleSchedule, ScaleSpec
from repro.experiments.runner import run_experiment
from repro.faults import FaultSchedule
from repro.tracing import InMemoryTracer, to_jsonl
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

SEED = 3
#: paper-scale partition multiplier (20 -> 160 partitions): ~8x the
#: memory store, deep into Fig. 9's pressure regime
PRESSURE_FACTOR = 8
#: fault suite (PR 5): clean vs seeded-schedule runs, recovery engaged
FAULT_SYSTEMS = ["blaze", "costaware", "spark_mem_disk"]
FAULT_WORKLOADS = ["pr", "cc"]
FAULT_COUNT = 4
#: obs suite (PR 7): decision-bound cells with the recording layer on/off
OBS_SYSTEMS = ["blaze"]
OBS_WORKLOADS = ["pr"]
#: columnar suite (PR 8): kernel-eligible chains, list vs columnar plane
COLUMNAR_SYSTEMS = ["blaze", "costaware", "spark_mem_disk"]
COLUMNAR_WORKLOADS = ["chain"]
#: scale suite (PR 9): executors x partitions sweep, single vs sharded.
#: Each cell is (workload, executors, partitions, iterations); the
#: chain/pagerank shapes are synthetic (built in this module) so the
#: heavy per-element closures ship to multiprocessing shard workers.
SCALE_MODES = ["single", "sharded_local", "sharded_process"]
SCALE_CELLS = [
    ("chain", 16, 512, 5),
    ("chain", 64, 1024, 5),
    ("chain", 256, 2048, 5),
    ("pagerank", 64, 1024, 4),
    ("pagerank", 256, 2048, 4),
    # The single-process engine is expected to blow the budget (dnf) or
    # finish >=2x slower here; the sharded modes must complete.
    ("chain", 1024, 8192, 6),
    # Width probe: a million partitions through one superstep.  No reuse
    # to exploit, so this measures pure dispatch overhead at full width.
    ("chain", 1024, 1_048_576, 1),
]
SCALE_NUM_SHARDS = 4
#: per-measurement wall-clock budget (full mode, subprocess-enforced)
SCALE_TIME_BUDGET_S = 240.0
#: elastic suite (PR 10): diurnal autoscaling cells plus the cost-per-job
#: vs fleet-size Pareto.  Each cell runs the workload on every fixed
#: fleet size (the Pareto points), then on an elastic fleet driven by a
#: forced diurnal schedule (two scale-ups, two scale-downs, one spot
#: preemption) sized to the base fleet's virtual makespan.  Cost is
#: provisioned executor-seconds (fleet size integrated over the virtual
#: run); the cross-checks pin results identical across every fleet size
#: and both elastic repeats byte-deterministic.
ELASTIC_SYSTEMS = ["blaze", "spark_mem_disk"]
ELASTIC_WORKLOADS = ["pr"]
ELASTIC_FLEET_SIZES = [2, 4, 8]
ELASTIC_BASE_FLEET = 4
PROFILE_TOP_N = 12


def smoke_cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=24 * MiB,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )


def _profile_top(run, top_n: int = PROFILE_TOP_N) -> list[str]:
    """One profiled execution of ``run``; top functions by cumulative time."""
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative")
    stats.print_stats(top_n)
    lines = [
        line.strip()
        for line in buf.getvalue().splitlines()
        if line.strip() and (line.lstrip()[:1].isdigit() or "/" in line)
    ]
    return lines[:top_n]


def run_cell(
    system: str,
    workload: str,
    scale: str,
    suite: str,
    flag: bool,
    profile: bool = False,
) -> dict:
    """One measurement: a full experiment with the suite's flag pinned."""
    if suite == "obs":
        # Pressure configuration: partitions inflated past the store.
        if scale == "tiny":
            # The obs cell measures a small relative overhead; more
            # iterations stretch the cell so timer noise stays well
            # under the 10% acceptance bar.
            wl = replace_params(
                make_workload(workload, "tiny"), num_partitions=24, iterations=9
            )
            cluster = smoke_cluster()
        else:
            base = make_workload(workload, scale)
            wl = replace_params(base, num_partitions=base.num_partitions * PRESSURE_FACTOR)
            cluster = None
        bcfg = BlazeConfig(obs=ObsConfig(enabled=flag))
    elif suite == "faults":
        # Registry shapes; the flag arms a seeded schedule over 80% of
        # the clean run's virtual makespan (the last 20% is left quiet so
        # trailing recoveries finish inside the measured run).
        wl = make_workload(workload, scale)
        cluster = smoke_cluster() if scale == "tiny" else None
        bcfg = BlazeConfig(fault_injection=flag)
    else:  # columnar
        # Kernel-eligible shape: a deep element-wise chain over cached
        # (int, float) pairs with thousands of rows per partition, so the
        # list side pays tens of millions of per-record Python calls that
        # the columnar side replaces with array expressions.  The modeled
        # source (~13 GB across 10 executors) stays memory-resident, so
        # every fused chain reads its source as a cached record batch.
        wl = make_workload(workload, scale)
        if scale == "tiny":
            cluster = smoke_cluster()
        else:
            wl = replace_params(
                wl, num_records=262_144, num_partitions=32,
                chain_depth=24, iterations=6,
            )
            cluster = None
        bcfg = BlazeConfig(columnar_backend=flag)

    schedule = None
    reference = None
    if suite == "faults" and flag:
        # Clean reference run: sets the schedule horizon and the
        # convergence oracle.  Deterministic, so one run suffices.
        reference = run_experiment(
            system, wl, scale=scale, seed=SEED, cluster_config=cluster
        )
        schedule = FaultSchedule.seeded(
            SEED,
            horizon_seconds=max(reference.act_seconds * 0.8, 1e-3),
            num_executors=2,  # injector re-clamps to the real cluster
            num_faults=FAULT_COUNT,
        )

    def once():
        return run_experiment(
            system, wl, scale=scale, seed=SEED, cluster_config=cluster,
            blaze_config=bcfg, fault_schedule=schedule,
        )

    # The sim is deterministic, so re-running only de-noises the clock:
    # repeat short cells (up to 3x / ~8 s) and keep the fastest wall.
    # The obs suite measures a small relative overhead, so its cells get
    # more repeats and a bigger time budget (min-of-1 at paper scale
    # would let one scheduler hiccup masquerade as recording cost).
    max_repeats = 9 if suite == "obs" else 3
    budget_s = 40.0 if suite == "obs" else 8.0
    walls = []
    while True:
        t0 = time.perf_counter()
        result = once()
        walls.append(time.perf_counter() - t0)
        if len(walls) >= max_repeats or sum(walls) > budget_s:
            break
    measurement = {
        "wall_seconds": round(min(walls), 3),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "evictions": result.eviction_count,
        "num_partitions": wl.num_partitions,
        "counters": result.report.decision_counters,
        "backend": "columnar" if bcfg.columnar_backend else "list",
        "codec": bcfg.columnar_codec,
        "spill_codec": bcfg.columnar_spill_codec,
    }
    if suite == "obs":
        report = result.report
        measurement["act_seconds"] = round(result.act_seconds, 6)
        measurement["audit_entries"] = len(report.audit_entries)
        measurement["samples"] = len(report.samples)
    if suite == "faults":
        measurement["fault_counters"] = result.report.fault_counters
        measurement["act_seconds"] = round(result.act_seconds, 6)
        if reference is not None:
            measurement["converged"] = (
                result.workload_result.final_value
                == reference.workload_result.final_value
            )
    if profile:
        measurement["profile_top"] = _profile_top(once)
    return measurement


def run_cell_subprocess(**spec) -> dict:
    """Fork a fresh interpreter so peak RSS is this cell's own high-water."""
    proc = subprocess.run(
        [sys.executable, __file__, "--cell", json.dumps(spec)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# Scale suite (PR 9): the sharded engine vs the single-process event loop
# ----------------------------------------------------------------------
def _scale_chain(ctx, partitions: int, iterations: int, rows: int, heavy: int):
    """Iterative chain: an expensive cached base re-read every iteration.

    The base is modeled at ~80 KB/partition against a 120 KB/executor
    store, so only a sliver of it stays resident — every iteration
    re-derives the churned remainder through the heavy map.  That
    recompute is exactly what shard workers' retained stores amortize.
    """
    src = ctx.source(
        lambda s, rng, R=rows: [(s * R + j, (s + j) % 97) for j in range(R)],
        partitions,
    )
    base = src.map(
        lambda kv, H=heavy: (kv[0] % 211, sum((kv[1] * i) % 7 for i in range(H)))
    ).with_weigher(lambda data: len(data) * 2048.0).cache()
    total = 0
    for _ in range(iterations):
        total += base.map(lambda kv: (kv[0], kv[1] + 1)).reduce_by_key(
            lambda a, b: a + b, num_partitions=max(partitions // 8, 1)
        ).count()
    return total


def _scale_pagerank(ctx, partitions: int, iterations: int, rows: int, heavy: int):
    """Synthetic PageRank: churned adjacency joined with evolving ranks."""
    num_nodes = partitions * rows
    src = ctx.source(
        lambda s, rng, R=rows: [s * R + j for j in range(R)], partitions
    )
    links = src.map(
        lambda n, N=num_nodes, H=heavy: (
            n, [(n + sum((n * i) % 7 for i in range(H)) + k * 31) % N
                for k in range(3)],
        )
    ).with_weigher(lambda data: len(data) * 2048.0).cache()
    ranks = src.map(lambda n: (n, 1.0))
    for _ in range(iterations):
        contribs = links.join(ranks, num_partitions=partitions).flat_map(
            lambda kv: [(d, kv[1][1] / len(kv[1][0])) for d in kv[1][0]]
        )
        ranks = contribs.reduce_by_key(
            lambda a, b: a + b, num_partitions=partitions
        ).map_values(lambda r: 0.15 + 0.85 * r)
    return round(sum(r for _, r in ranks.collect()), 6)


def run_scale_cell(
    workload: str, executors: int, partitions: int, iterations: int, mode: str
) -> dict:
    """One scale measurement: a sweep cell in one engine mode."""
    from repro.dataflow.context import BlazeContext

    # The width probe (a single pass over a million partitions) carries
    # tiny rows and a cheap map — it measures dispatch, not compute.
    # Elsewhere the map weight scales with executor count so the cell
    # stays compute-bound: the event-loop floor grows with the task
    # count and is paid identically by every mode, so a fixed weight
    # would let it dilute the recompute signal at the widest cells.
    wide = partitions >= 100_000
    if wide:
        rows, heavy = 2, 8
    else:
        rows, heavy = 40, (800 if executors >= 1024 else 400)
    cluster = ClusterConfig(
        num_executors=executors,
        slots_per_executor=2,
        memory_store_bytes=120_000,
        tracing_enabled=False,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )
    bcfg = BlazeConfig(
        sharded_engine=mode != "single",
        num_shards=SCALE_NUM_SHARDS,
        shard_transport="process" if mode == "sharded_process" else "local",
    )
    ctx = BlazeContext(cluster_config=cluster, blaze_config=bcfg, seed=SEED)
    run = _scale_pagerank if workload == "pagerank" else _scale_chain
    t0 = time.perf_counter()
    final_value = run(ctx, partitions, iterations, rows, heavy)
    wall = time.perf_counter() - t0
    report = ctx.report()
    ctx.stop()
    return {
        "wall_seconds": round(wall, 3),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "final_value": final_value,
        "evictions": report.eviction_count,
        "ilp_nodes": report.decision_counters["ilp_nodes"],
        "shard_counters": report.shard_counters,
    }


def run_scale_cell_subprocess(spec: dict, budget_s: float) -> dict:
    """Budgeted subprocess run; exceeding the budget records a ``dnf``."""
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--cell", json.dumps(spec)],
            capture_output=True,
            text=True,
            check=True,
            timeout=budget_s,
        )
    except subprocess.TimeoutExpired:
        return {"dnf": True, "wall_seconds": round(budget_s, 3)}
    return json.loads(proc.stdout)


def run_scale_matrix(
    cells: list[tuple], in_process: bool, budget_s: float = SCALE_TIME_BUDGET_S
) -> dict:
    out_cells = []
    for workload, executors, partitions, iterations in cells:
        measurements = {}
        for mode in SCALE_MODES:
            print(
                f"[bench] scale: {workload} x {executors} executors x "
                f"{partitions} partitions ({mode}) ...",
                flush=True,
            )
            spec = dict(
                suite="scale", workload=workload, executors=executors,
                partitions=partitions, iterations=iterations, mode=mode,
            )
            if in_process:
                spec.pop("suite")
                measurements[mode] = run_scale_cell(**spec)
            else:
                measurements[mode] = run_scale_cell_subprocess(spec, budget_s)
            m = measurements[mode]
            label = "DNF" if m.get("dnf") else f"{m['wall_seconds']:.1f}s"
            print(f"[bench]   {label}", flush=True)
        single = measurements["single"]
        finished = {
            mode: m for mode, m in measurements.items() if not m.get("dnf")
        }
        values = {m["final_value"] for m in finished.values()}
        observables = {
            (m["evictions"], m["ilp_nodes"]) for m in finished.values()
        }
        cell = {
            "workload": workload,
            "executors": executors,
            "partitions": partitions,
            "iterations": iterations,
            "seed": SEED,
            "num_shards": SCALE_NUM_SHARDS,
            "single_dnf": bool(single.get("dnf")),
            "results_identical": len(values) <= 1,
            "observables_identical": len(observables) <= 1,
            **measurements,
        }
        # Speedups against the single-process engine; a dnf single run is
        # floored at the budget, so these are lower bounds.
        single_wall = single["wall_seconds"]
        for mode in ("sharded_local", "sharded_process"):
            m = measurements[mode]
            if m.get("dnf"):
                continue
            cell[f"{mode}_speedup"] = round(
                single_wall / max(m["wall_seconds"], 1e-9), 2
            )
        out_cells.append(cell)
    return {
        "seed": SEED,
        "num_shards": SCALE_NUM_SHARDS,
        "time_budget_seconds": None if in_process else budget_s,
        "cells": out_cells,
        "all_results_identical": all(c["results_identical"] for c in out_cells),
        "all_observables_identical": all(
            c["observables_identical"] for c in out_cells
        ),
    }


# ----------------------------------------------------------------------
# Elastic suite (PR 10): diurnal autoscaling vs the fixed-fleet Pareto
# ----------------------------------------------------------------------
def _diurnal_schedule(horizon: float) -> ScaleSchedule:
    """A forced diurnal day compressed into ``horizon`` virtual seconds.

    Morning ramp (scale-up), midday trough (graceful scale-down), an
    afternoon spot reclaim (preemption — lineage recovery pays later),
    an evening peak (scale-up) and the overnight wind-down.  Five
    events, at least one of each kind, all fleet-size changes nonzero.
    """
    h = max(horizon, 1e-3)
    return ScaleSchedule((
        ScaleSpec(0.05 * h, "scale_up", count=2),
        ScaleSpec(0.35 * h, "scale_down", count=2, executor_id=1),
        ScaleSpec(0.50 * h, "preemption", executor_id=0),
        ScaleSpec(0.60 * h, "scale_up", count=2),
        ScaleSpec(0.85 * h, "scale_down", count=1, executor_id=2),
    ))


def _fleet_seconds(events, initial_fleet: int, act_seconds: float) -> float:
    """Integrate provisioned fleet size over the virtual run.

    ``fleet.scale`` instants carry the post-event fleet size and fire on
    the same raw virtual clock as ``act_seconds``, so the integral is a
    left-closed step function from t=0 to the end of the run.
    """
    total, last_t, fleet = 0.0, 0.0, initial_fleet
    for event in events:
        if event.name != "fleet.scale":
            continue
        total += fleet * max(event.ts - last_t, 0.0)
        last_t, fleet = event.ts, int(event.args["fleet"])
    return total + fleet * max(act_seconds - last_t, 0.0)


def _elastic_cluster(num_executors: int, scale: str) -> ClusterConfig:
    per_executor = 8.5 * GiB if scale == "paper" else 24 * MiB
    return ClusterConfig(
        num_executors=num_executors,
        slots_per_executor=2,
        memory_store_bytes=per_executor,
        tracing_enabled=False,
        disk=DiskConfig(capacity_bytes=100 * GiB),
    )


def run_elastic_cell(system: str, workload: str, scale: str) -> dict:
    """One elastic measurement: the fixed-fleet Pareto plus a diurnal run.

    Every fixed fleet size in :data:`ELASTIC_FLEET_SIZES` runs the
    workload once (the Pareto points: cost = provisioned
    executor-seconds, so bigger fleets finish sooner but bill more
    executors for all of it).  The base-fleet point doubles as the
    convergence oracle for the elastic run, which replays the same
    workload under the forced diurnal schedule — twice, traced, so the
    merged JSONL traces must match byte for byte.
    """
    wl = make_workload(workload, scale)

    def fixed_run(n: int, tracer=None, schedule=None):
        bcfg = BlazeConfig(
            elastic=ElasticConfig(enabled=schedule is not None)
        )
        t0 = time.perf_counter()
        result = run_experiment(
            system, wl, scale=scale, seed=SEED,
            cluster_config=_elastic_cluster(n, scale),
            blaze_config=bcfg, tracer=tracer, scale_schedule=schedule,
        )
        return result, time.perf_counter() - t0

    pareto = []
    by_size = {}
    for n in ELASTIC_FLEET_SIZES:
        result, wall = fixed_run(n)
        by_size[n] = result
        fleet_seconds = n * result.act_seconds
        jobs = max(result.report.job_count, 1)
        pareto.append({
            "fleet_size": n,
            "act_seconds": round(result.act_seconds, 6),
            "fleet_seconds": round(fleet_seconds, 6),
            "jobs": result.report.job_count,
            "cost_per_job": round(fleet_seconds / jobs, 6),
            "evictions": result.eviction_count,
            "wall_seconds": round(wall, 3),
            "final_value": result.workload_result.final_value,
        })
    reference = by_size[ELASTIC_BASE_FLEET]
    schedule = _diurnal_schedule(reference.act_seconds)

    def diurnal_once():
        tracer = InMemoryTracer()
        result, wall = fixed_run(ELASTIC_BASE_FLEET, tracer=tracer, schedule=schedule)
        return result, wall, to_jsonl(tracer.events)

    elastic_result, elastic_wall, trace_a = diurnal_once()
    _result_b, _wall_b, trace_b = diurnal_once()
    counters = elastic_result.report.elastic_counters
    fleet_seconds = _fleet_seconds(
        elastic_result.report.events, ELASTIC_BASE_FLEET,
        elastic_result.report.act_seconds,
    )
    jobs = max(elastic_result.report.job_count, 1)
    base_cost = ELASTIC_BASE_FLEET * reference.act_seconds
    diurnal = {
        "base_fleet": ELASTIC_BASE_FLEET,
        "schedule_events": len(schedule),
        "act_seconds": round(elastic_result.act_seconds, 6),
        "fleet_seconds": round(fleet_seconds, 6),
        "jobs": elastic_result.report.job_count,
        "cost_per_job": round(fleet_seconds / jobs, 6),
        "cost_delta_vs_base_pct": round(
            (fleet_seconds - base_cost) / max(base_cost, 1e-9) * 100.0, 1
        ),
        "wall_seconds": round(elastic_wall, 3),
        "elastic_counters": counters,
        "deterministic": trace_a == trace_b,
        "converged": (
            elastic_result.workload_result.final_value
            == reference.workload_result.final_value
        ),
        "final_value": elastic_result.workload_result.final_value,
    }
    values = {p["final_value"] for p in pareto} | {diurnal["final_value"]}
    cell = {
        "system": system,
        "workload": workload,
        "scale": scale,
        "seed": SEED,
        "num_partitions": wl.num_partitions,
        "pareto": pareto,
        "diurnal": diurnal,
        # Observables cross-checks: fleet size (fixed or elastic) must
        # never move the computed answer, the schedule must actually
        # fire every event class, and both traced repeats must match.
        "results_identical": len(values) == 1,
        "schedule_engaged": (
            counters["scale_events"] == len(schedule)
            and counters["preemptions"] >= 1
            and counters["scale_ups"] >= 1
            and counters["scale_downs"] >= 1
        ),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    return cell


def run_elastic_matrix(
    systems: list[str], workloads: list[str], scale: str, in_process: bool
) -> dict:
    cells = []
    for workload in workloads:
        for system in systems:
            print(
                f"[bench] elastic: {workload} x {system} "
                f"(fleets {ELASTIC_FLEET_SIZES}, scale={scale}) ...",
                flush=True,
            )
            spec = dict(
                suite="elastic", system=system, workload=workload, scale=scale
            )
            if in_process:
                spec.pop("suite")
                cell = run_elastic_cell(**spec)
            else:
                cell = run_cell_subprocess(**spec)
            cells.append(cell)
            costs = {p["fleet_size"]: p["cost_per_job"] for p in cell["pareto"]}
            d = cell["diurnal"]
            print(
                f"[bench]   pareto cost/job {costs}, "
                f"elastic {d['cost_per_job']} "
                f"({d['cost_delta_vs_base_pct']:+.1f}% vs fixed base), "
                f"converged={d['converged']} deterministic={d['deterministic']}",
                flush=True,
            )
    return {
        "scale": scale,
        "seed": SEED,
        "base_fleet": ELASTIC_BASE_FLEET,
        "fleet_sizes": ELASTIC_FLEET_SIZES,
        "cells": cells,
        "all_converged": all(c["diurnal"]["converged"] for c in cells),
        "all_deterministic": all(c["diurnal"]["deterministic"] for c in cells),
        "all_results_identical": all(c["results_identical"] for c in cells),
        "all_schedules_engaged": all(c["schedule_engaged"] for c in cells),
    }


def run_matrix(
    suite: str,
    scale: str,
    systems: list[str],
    workloads: list[str],
    in_process: bool,
    profile: bool = False,
) -> dict:
    off_label, on_label = {
        "faults": ("clean", "faulted"),
        "obs": ("obs_off", "obs_on"),
        "columnar": ("list", "columnar"),
    }[suite]
    cells = []
    for workload in workloads:
        for system in systems:
            measurements = {}
            for flag in (False, True):
                label = on_label if flag else off_label
                print(
                    f"[bench] {suite}: {workload} x {system} ({label}, scale={scale}) ...",
                    flush=True,
                )
                spec = dict(
                    system=system, workload=workload, scale=scale,
                    suite=suite, flag=flag, profile=profile,
                )
                measurements[label] = (
                    run_cell(**spec) if in_process else run_cell_subprocess(**spec)
                )
            off, on = measurements[off_label], measurements[on_label]
            cell = {
                "system": system,
                "workload": workload,
                "num_partitions": off.pop("num_partitions"),
                "seed": SEED,
                off_label: off,
                on_label: on,
                "speedup": round(
                    off["wall_seconds"] / max(on["wall_seconds"], 1e-9), 2
                ),
            }
            on.pop("num_partitions", None)
            if suite in ("obs", "columnar"):
                cell["observables_identical"] = (
                    off["evictions"] == on["evictions"]
                    and off["counters"]["ilp_nodes"] == on["counters"]["ilp_nodes"]
                )
            if suite == "obs":
                # Overhead of recording (audit + sampler) relative to the
                # obs-off wall; kept under 10% by the smoke test.
                cell["overhead_pct"] = round(
                    (on["wall_seconds"] - off["wall_seconds"])
                    / max(off["wall_seconds"], 1e-9) * 100.0,
                    1,
                )
            if suite == "faults":
                cell["converged"] = on.get("converged", False)
            cells.append(cell)
            print(
                f"[bench]   {off['wall_seconds']:.1f}s -> {on['wall_seconds']:.1f}s "
                f"({cell['speedup']}x)",
                flush=True,
            )
    speedups = [c["speedup"] for c in cells]
    return {
        "scale": scale,
        "seed": SEED,
        "cells": cells,
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_pr<N>.json of the "
                             "PR that introduced the suite, BENCH_all.json "
                             "for --suite all)")
    parser.add_argument("--smoke", action="store_true", help="tiny scale, in-process, fast")
    parser.add_argument("--profile", action="store_true",
                        help="attach cProfile top-N to every measurement")
    parser.add_argument(
        "--suite",
        choices=["faults", "obs", "columnar", "scale", "elastic", "all"],
        default="all",
    )
    parser.add_argument("--cell", help="(internal) run one cell from a JSON spec")
    args = parser.parse_args(argv)

    if args.cell:
        spec = json.loads(args.cell)
        if spec.get("suite") == "scale":
            spec.pop("suite")
            print(json.dumps(run_scale_cell(**spec)))
        elif spec.get("suite") == "elastic":
            spec.pop("suite")
            print(json.dumps(run_elastic_cell(**spec)))
        else:
            print(json.dumps(run_cell(**spec)))
        return 0

    doc: dict = {"seed": SEED}
    if args.smoke:
        if args.suite in ("faults", "all"):
            doc["faults"] = run_matrix(
                "faults", "tiny", ["blaze", "spark_mem_disk"], ["pr"],
                in_process=True, profile=args.profile,
            )
        if args.suite in ("obs", "all"):
            doc["obs"] = run_matrix(
                "obs", "tiny", ["blaze"], ["pr"], in_process=True,
                profile=args.profile,
            )
        if args.suite in ("columnar", "all"):
            doc["columnar"] = run_matrix(
                "columnar", "tiny", ["blaze", "spark_mem_disk"], ["chain"],
                in_process=True, profile=args.profile,
            )
        if args.suite in ("scale", "all"):
            doc["scale"] = run_scale_matrix(
                [("chain", 8, 128, 3), ("pagerank", 8, 64, 2)],
                in_process=True,
            )
        if args.suite in ("elastic", "all"):
            doc["elastic"] = run_elastic_matrix(
                ["blaze"], ["pr"], "tiny", in_process=True,
            )
    else:
        if args.suite in ("faults", "all"):
            doc["faults"] = run_matrix(
                "faults", "paper", FAULT_SYSTEMS, FAULT_WORKLOADS,
                in_process=False, profile=args.profile,
            )
        if args.suite in ("obs", "all"):
            doc["obs"] = run_matrix(
                "obs", "paper", OBS_SYSTEMS, OBS_WORKLOADS,
                in_process=False, profile=args.profile,
            )
        if args.suite in ("columnar", "all"):
            doc["columnar"] = run_matrix(
                "columnar", "paper", COLUMNAR_SYSTEMS, COLUMNAR_WORKLOADS,
                in_process=False, profile=args.profile,
            )
        if args.suite in ("scale", "all"):
            doc["scale"] = run_scale_matrix(SCALE_CELLS, in_process=False)
        if args.suite in ("elastic", "all"):
            doc["elastic"] = run_elastic_matrix(
                ELASTIC_SYSTEMS, ELASTIC_WORKLOADS, "paper", in_process=False,
            )

    out = args.out or {
        "faults": "BENCH_pr5.json",
        "obs": "BENCH_pr7.json",
        "columnar": "BENCH_pr8.json",
        "scale": "BENCH_pr9.json",
        "elastic": "BENCH_pr10.json",
    }.get(args.suite, "BENCH_all.json")
    Path(out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for suite in ("faults", "columnar"):
        if suite in doc:
            print(
                f"[bench] {suite}: speedups {doc[suite]['min_speedup']}x - "
                f"{doc[suite]['max_speedup']}x"
            )
    if "obs" in doc:
        overheads = [c["overhead_pct"] for c in doc["obs"]["cells"]]
        print(
            f"[bench] obs: overhead {min(overheads)}% - {max(overheads)}%, "
            f"observables_identical="
            f"{all(c['observables_identical'] for c in doc['obs']['cells'])}"
        )
    if "elastic" in doc:
        el = doc["elastic"]
        print(
            f"[bench] elastic: {len(el['cells'])} cells, fleets "
            f"{el['fleet_sizes']}, converged={el['all_converged']}, "
            f"deterministic={el['all_deterministic']}, "
            f"schedules_engaged={el['all_schedules_engaged']}"
        )
    if "scale" in doc:
        sc = doc["scale"]
        local = [c.get("sharded_local_speedup") for c in sc["cells"]]
        mp = [c.get("sharded_process_speedup") for c in sc["cells"]]
        print(
            f"[bench] scale: {len(sc['cells'])} cells, "
            f"local {min(x for x in local if x)}x-{max(x for x in local if x)}x, "
            f"mp {min(x for x in mp if x)}x-{max(x for x in mp if x)}x, "
            f"single_dnf={sum(1 for c in sc['cells'] if c['single_dnf'])}, "
            f"observables_identical={sc['all_observables_identical']}"
        )
    print(f"[bench] wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
