"""Compare two commits with this directory's benchmark code.

    git archive PARENT | tar -x -C /tmp/parent
    git archive CHANGE | tar -x -C /tmp/change
    python3 bench/compare.py /tmp/parent /tmp/change [--pairs 10] [--seed 3]

Both trees are measured by the *same* ``bench/run.py`` (this one) through
``--root``, so a change cannot move a number by editing the benchmark.
Runs go in alternating pairs (parent first, then change first, ...), one
seed throughout.  Per workload x end-to-end metric it prints each side's
median and quartiles and a verdict:

- simulated metrics (``*_virtual_*``, ``speedup_vs_spark``) and every
  count of the traced run compare exactly: ``identical``, or ``better`` /
  ``worse`` with both values (``regression`` past the bound);
- host metrics: ``gain`` only when the change wins >= 9/10 of the pairs
  (ties count for neither side) and the medians differ by more than the
  parent's inter-quartile distance; ``regression`` when the change's
  median is worse by more than the bound; ``unresolved`` when the
  parent's own spread exceeds the bound (unless every change run beats
  every parent run); otherwise ``within bound``.

A gain does not count if the change fails more jobs than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--root", str(tree),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if not proc.stdout.strip():
        raise SystemExit(f"{tree}: {workload} printed no result\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_exact(name: str) -> bool:
    """Simulated metrics and counts repeat exactly at one seed; host ones do not."""
    if "virtual" in name or name == "speedup_vs_spark":
        return True
    host = name.endswith("_s") or name.startswith("trace.")
    return not host and name not in ("wall_us_per_task", "peak_rss_mib")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric: dict, parent: float, change: float) -> float:
    """Share of the parent's value by which the change is worse (< 0: better)."""
    delta = (change - parent) / abs(parent) if parent else float(change != parent)
    return delta if metric["better"] == "lower" else -delta


def exact_verdict(metric: dict, parent: float, change: float) -> str:
    if parent == change:
        return "identical"
    w = worse_by(metric, parent, change)
    if w > metric.get("bound", float("inf")):
        return f"regression ({parent!r} -> {change!r})"
    return f"{'worse' if w > 0 else 'better'} ({parent!r} -> {change!r})"


def host_verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    w = worse_by(metric, p_med, c_med)
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    clean_sweep = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) / p_med > metric["bound"] and not clean_sweep:
        return "unresolved (parent spread exceeds the bound)"
    if w > metric["bound"]:
        return f"regression ({100 * w:+.1f} %)"
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > (q3 - q1):
        return f"gain ({100 * w:+.1f} %, {wins}/{len(parent)} pairs)"
    return f"within bound ({100 * w:+.1f} %, {wins}/{len(parent)} pairs)"


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("a comparison needs at least 10 pairs")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    regressed = False
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(trees[side], workload, args.seed, trace=0))
        traced = {side: run_once(tree, workload, args.seed, trace=1) for side, tree in trees.items()}
        failed = {side: max(r["failed"] for r in rs + [traced[side]]) for side, rs in runs.items()}

        print(f"\n== {workload}  (seed {args.seed}, {args.pairs} pairs; "
              f"failed jobs parent {failed['parent']}, change {failed['change']})")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in runs[s]] for s in trees)
            if is_exact(name):
                verdict = exact_verdict(metric, parent[0], change[0])
                if len(set(parent)) > 1 or len(set(change)) > 1:
                    verdict = "NOT DETERMINISTIC at one seed"
            else:
                verdict = host_verdict(metric, parent, change)
            if verdict.startswith("gain") and failed["change"] > failed["parent"]:
                verdict = "no gain: the change fails more jobs"
            regressed |= verdict.startswith(("regression", "NOT"))
            pq, cq = quartiles(parent), quartiles(change)
            print(f"  {name:28s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']:4s} {verdict}")
        print("  per layer (one traced run each; host self times are single samples):")
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            a, b = (traced[s]["metrics"][name]["value"] for s in trees)
            note = exact_verdict(metric, a, b) if is_exact(name) else f"{a:.4g} -> {b:.4g}"
            if note != "identical":
                print(f"    {name:44s} {note}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
