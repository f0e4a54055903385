"""The one benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload as ``blaze`` against the ``spark_mem_disk`` reference on
inputs generated from ``--seed``, checks the outputs, and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json (host times are medians over repeated untraced
runs filling ``--seconds``); ``--trace 1`` reports the per-layer metrics
from one untraced and one separately traced run per system.  See
README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: child processes that each repeat set-up from a cold interpreter
SETUP_PROBES = 5


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, default=None,
                   help="host seconds of untraced blaze runs to measure (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-check")
    p.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                   help="tree whose src/ is measured (compare.py points this at each commit)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args: argparse.Namespace):
    """Imports, a tiny warm-up run of both systems, input generation."""
    # Import bench modules through their package: bench/ itself on the
    # path would let bench/trace.py shadow the stdlib's ``trace``.
    if sys.path and Path(sys.path[0] or ".").resolve() == BENCH_DIR:
        del sys.path[0]
    sys.path[:0] = [str(args.root / "src"), str(BENCH_DIR.parent)]
    from bench import workloads  # noqa: PLC0415 - needs the path above

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {list(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    warm = build(args.seed, True)
    for system in (workloads.REFERENCE, workloads.BLAZE):
        warm.run(system)
    return workloads, build(args.seed, args.smoke)


def probe_setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of cold child processes that only set up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--root", str(args.root),
    ] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def simulated_metrics(workloads, blaze, ref) -> dict:
    """Every simulated-time metric and count of one (blaze, reference) pair.

    All of it is a function of the inputs alone: two runs at one seed
    must agree on this dict exactly, traced or not.
    """
    from repro.config import GiB  # noqa: PLC0415

    def hit_ratio(report) -> float:
        a = report.access_counters
        return a["cache_hits"] / max(a["cache_hits"] + a["cache_misses"], 1)

    r, d = blaze.report, blaze.report.decision_counters
    lookups = r.access_counters["cache_hits"] + r.access_counters["cache_misses"]
    completions = [a + lat for a, lat in zip(blaze.arrivals, blaze.latencies)]
    return {
        "act_virtual_s": blaze.act_virtual_s,
        "speedup_vs_spark": ref.act_virtual_s / blaze.act_virtual_s,
        "app_latency_p50_virtual_s": workloads.percentile(blaze.latencies, 0.50),
        "app_latency_p95_virtual_s": workloads.percentile(blaze.latencies, 0.95),
        "cache.hit_ratio": hit_ratio(r),
        "cache.evictions": r.eviction_count,
        "cache.evictions_to_disk": r.evictions_to_disk,
        "cache.unpersists": r.unpersists,
        "cache.disk_written_gib": r.disk_bytes_written_total / GiB,
        "cache.recompute_virtual_s": r.recompute_seconds,
        "cache.disk_io_virtual_s": r.disk_io_seconds,
        "cache.compute_shuffle_virtual_s": r.compute_shuffle_seconds,
        "core.profiler.virtual_s": r.profiling_seconds,
        "core.ilp.solves": r.ilp_solves,
        "core.ilp.nodes": d["ilp_nodes"],
        "core.ilp.migrations": r.ilp_migrations,
        "core.decision_cache.memo_hit_ratio": d["cost_memo_hits"]
        / max(d["cost_memo_hits"] + d["cost_memo_misses"], 1),
        "core.decision_cache.scanned_per_selection": d["victim_candidates_scanned"]
        / max(d["victim_selections"], 1),
        "dataflow.fusion.partitions_pipelined": d["partitions_pipelined"],
        "storage.kernels.partitions": d["kernel_partitions"],
        "storage.kernels.fallback_ratio": d["kernel_fallbacks"]
        / max(d["kernel_partitions"] + d["kernel_fallbacks"], 1),
        "storage.columnar.codec_transitions": d["codec_transitions"],
        "cluster.scheduler.tasks": r.task_count,
        "cluster.driver.jobs": r.job_count,
        "service.shared_hits": r.service_counters["shared_hits"],
        "service.shared_hit_ratio": r.service_counters["shared_hits"] / max(lookups, 1),
        "service.gids_deduped": r.service_counters["gids_deduped"],
        "service.queue_delay_share": sum(j.queue_delay for j in r.job_records)
        / max(sum(j.latency for j in r.job_records), 1e-12),
        "service.backlog_at_last_arrival": sum(c > blaze.arrivals[-1] for c in completions),
        "ref.act_virtual_s": ref.act_virtual_s,
        "ref.hit_ratio": hit_ratio(ref.report),
        "ref.shared_hits": ref.report.service_counters["shared_hits"],
    }


def traced_metrics(trace, blaze_spans, ref_spans) -> dict:
    """Host self time per layer, plus counts only the seams can give."""
    blaze_self, ref_self = trace.self_seconds(blaze_spans), trace.self_seconds(ref_spans)
    renamed = {
        "metrics.report": "metrics.report_s",
        trace.DAG_BUILD: "workloads.dag_build_s",
        trace.ACTION: "workloads.action_s",
        trace.ROOT: "experiments.residual_s",
    }
    out = {renamed.get(layer, f"{layer}.self_s"): s for layer, s in blaze_self.items()}
    out["caching.manager.self_s"] = ref_self["caching.manager"]
    root = blaze_spans[0].end_s - blaze_spans[0].start_s
    out["trace.root_s"] = root
    out["trace.coverage_pct"] = 100.0 * (1.0 - blaze_self[trace.ROOT] / root)
    out["cluster.shuffle.writes"] = sum(s.fn == "ShuffleManager.write" for s in blaze_spans)
    out["cluster.shuffle.fetches"] = sum(s.fn == "ShuffleManager.fetch" for s in blaze_spans)
    out["ref.core_self_s"] = sum(s for layer, s in ref_self.items() if layer.startswith("core."))
    return out


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    try:
        workloads, scenario = set_up(args)
    except ImportError as exc:
        print(f"bench: cannot import the program under {args.root}/src: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return 0

    problems: list[str] = []  # each one is a failed check
    ref, ref_wall = timed(scenario.run, workloads.REFERENCE)
    blaze, first_wall = timed(scenario.run, workloads.BLAZE)
    values = simulated_metrics(workloads, blaze, ref)

    if args.trace == 0:
        walls = [first_wall]
        for _ in range(max(1, round(args.seconds / first_wall)) - 1):
            again, wall = timed(scenario.run, workloads.BLAZE)
            walls.append(wall)
            if again.results != blaze.results or simulated_metrics(workloads, again, ref) != values:
                problems.append("a repeated blaze run disagreed with the first")
        values["wall_s"] = statistics.median(walls)
        values["wall_us_per_task"] = 1e6 * values["wall_s"] / blaze.report.task_count
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["setup_s"] = probe_setup_seconds(args)
        wanted = spec["end_to_end"]
    else:
        from bench import trace  # noqa: PLC0415 - importable since set_up

        spans, traced_wall = {}, {}
        for system, untraced in ((workloads.REFERENCE, ref), (workloads.BLAZE, blaze)):
            recorder = trace.SpanRecorder(scenario.name, scenario.workload_class)
            with recorder:
                traced, traced_wall[system] = timed(recorder.call, scenario.run, system)
            spans[system] = recorder.spans()
            pair = (traced, ref) if system == workloads.BLAZE else (blaze, traced)
            if traced.results != untraced.results or simulated_metrics(workloads, *pair) != values:
                problems.append(f"tracing changed the {system} run")
        values.update(traced_metrics(trace, spans[workloads.BLAZE], spans[workloads.REFERENCE]))
        values["trace.overhead_pct"] = (
            100.0 * (traced_wall[workloads.BLAZE] - first_wall) / first_wall
        )
        values["ref.wall_s"] = ref_wall
        if values["ref.core_self_s"] != 0.0:
            problems.append("the reference run spent time in core.*")
        wanted = spec["per_layer"]

    # A driver job fails when its application's result differs from the
    # reference's (an application that raised carries the exception's
    # repr as its result); every other failed check counts as one more.
    attempted = sum(blaze.jobs_per_app)
    failed = sum(
        jobs for mine, theirs, jobs in zip(blaze.results, ref.results, blaze.jobs_per_app)
        if mine != theirs
    ) + len(problems)
    problems += scenario.guard(values)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
