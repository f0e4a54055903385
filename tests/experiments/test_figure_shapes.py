"""The shapes of the paper's Figs. 3-5 and 9-12 at paper scale, seed 0.

Each test asserts the shape the paper's figure shows; EXPERIMENTS.md
records the measured values.  Cells run through
``repro.experiments.figures``' process-wide memo, so a cell that several
figures read (Fig. 9's grid feeds Fig. 10, its Blaze column Figs. 11 and
13) runs once per session.  Fig. 13 lives in ``test_fig13_shape.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import BlazeConfig
from repro.experiments.figures import (
    APP_LABELS,
    APPS,
    FIG9_SYSTEMS,
    fig3_eviction_skew,
    fig4_disk_io_breakdown,
    fig5_recompute_growth,
    fig9_end_to_end,
    fig10_cost_breakdown,
    fig11_ablation,
    fig12_memonly_evictions,
)
from repro.experiments.runner import run_experiment

SCALE = "paper"
SEED = 0

#: SVD++ misses Fig. 11's order; the xfail names the measurement
_COSTAWARE_REGRESSES = (
    "regression: paper SVD++ runs 787.35 s under +CostAware against "
    "769.52 s under +AutoCache (+2.3 %, tolerance 2 %); see ROADMAP"
)


# ----------------------------------------------------------------------
# Fig. 3-5: the motivation figures, Spark alone
# ----------------------------------------------------------------------
def test_fig3_every_executor_evicts_and_skew_is_visible():
    """Dataset-granularity caching evicts unevenly across executors
    (paper: roughly 20-100 GB over 10 executors, PR on MEM+DISK)."""
    volumes = [row[1] for row in fig3_eviction_skew(SCALE, SEED).rows]
    assert len(volumes) == 10, "one bar per executor machine"
    assert all(v > 0 for v in volumes), "every executor evicts under MEM+DISK"
    assert max(volumes) / min(volumes) > 1.05, "per-executor skew is visible"


def test_fig4_pr_is_disk_bound_and_lr_compute_bound():
    """Disk I/O share of task time on MEM+DISK Spark (paper: PR ~70 %,
    SVD++ 56 %, CC 45 %, GBT 39 %, KMeans 32 %, LR 3 %)."""
    shares = {row[0]: row[3] for row in fig4_disk_io_breakdown(SCALE, SEED).rows}
    assert shares["PR"] > 50, "PR is dominated by disk I/O for caching"
    assert shares["LR"] < 15, "LR is compute-bound"
    assert shares["PR"] == max(shares.values()), "PR has the largest disk share"
    assert shares["LR"] == min(shares.values()), "LR has the smallest disk share"


def test_fig5_recompute_grows_with_lineage_depth():
    """PR on MEM_ONLY Spark: later iterations replay longer lineages."""
    series = [row[1] for row in fig5_recompute_growth(SCALE, SEED).rows]
    assert len(series) == 10, "ten PR iterations"
    assert sum(series) > 0, "MEM_ONLY PR must recompute evicted data"
    assert sum(series[-3:]) > sum(series[:3]), "recomputation grows with lineage depth"


# ----------------------------------------------------------------------
# Fig. 9-12: the evaluation
# ----------------------------------------------------------------------
def test_fig9_blaze_is_fastest_everywhere():
    """Paper: Blaze is 2.02-2.52x faster than MEM_ONLY Spark and
    1.08-2.86x faster than MEM+DISK Spark."""
    data = fig9_end_to_end(SCALE, SEED)
    blaze_col = 1 + FIG9_SYSTEMS.index("blaze")
    mem_col = 1 + FIG9_SYSTEMS.index("spark_mem_only")
    md_col = 1 + FIG9_SYSTEMS.index("spark_mem_disk")

    by_app = {row[0]: row for row in data.rows}
    for app, row in by_app.items():
        assert min(row[1:]) == row[blaze_col], f"Blaze must be fastest on {app}"

    speedups = data.notes["speedups"]
    for app, s in speedups.items():
        assert s["vs_mem_only"] >= 1.4, f"{app}: vs MEM_ONLY {s['vs_mem_only']:.2f}"
        assert s["vs_mem_disk"] >= 1.05, f"{app}: vs MEM+DISK {s['vs_mem_disk']:.2f}"

    md = {a: s["vs_mem_disk"] for a, s in speedups.items()}
    assert max(md, key=md.get) == "pr", "PR shows the largest MEM+DISK speedup"
    assert min(md, key=md.get) == "lr", "LR shows the smallest MEM+DISK speedup"

    # Disk-dominated PR: two-tier Spark loses to recompute-only Spark ...
    assert by_app["PR"][md_col] > by_app["PR"][mem_col]
    # ... and on compute-lighter CC the relation flips.
    assert by_app["CC"][md_col] < by_app["CC"][mem_col]


def test_fig10_blaze_cuts_disk_io():
    """Paper: Blaze cuts MEM+DISK Spark's disk I/O time by 87-99 % and
    the cached bytes written to disk by 83-100 % (95 % on average)."""
    data = fig10_cost_breakdown(SCALE, SEED)
    cell = {(row[0], row[1]): row for row in data.rows}
    for app_label in {row[0] for row in data.rows}:
        assert cell[(app_label, "Spark (MEM)")][2] == 0.0, "MEM_ONLY has no cache disk I/O"
        blaze_disk = cell[(app_label, "Blaze")][2]
        md_disk = cell[(app_label, "Spark (MEM+DISK)")][2]
        if md_disk > 0:
            assert blaze_disk < 0.5 * md_disk, f"{app_label}: Blaze cuts disk I/O time"
        # Alluxio's mandatory serialization costs at least as much as MEM+DISK.
        assert cell[(app_label, "Spark+Alluxio")][2] >= md_disk * 0.99

    reductions = data.notes["disk_reduction_pct"]
    assert len(reductions) == len(APPS)
    assert all(r >= 55 for r in reductions.values()), reductions
    average = sum(reductions.values()) / len(reductions)
    assert average >= 85, f"average disk reduction {average:.1f}% (paper: 95%)"


@pytest.mark.parametrize(
    "app",
    [
        pytest.param(
            app,
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=_COSTAWARE_REGRESSES
            ),
        )
        if app == "svdpp"
        else app
        for app in APPS
    ],
)
def test_fig11_no_component_regresses(app):
    """MEM+DISK -> +AutoCache -> +CostAware -> Blaze never regresses.

    Paper: auto-caching 1.01-1.15x, cost-aware eviction up to 1.69x, the
    unified/ILP decisions up to 1.61x more.  Steps equal within 2 % are
    allowed.  The +CostAware step is checked last, so SVD++'s other
    steps stay checked under its xfail.
    """
    rows = {row[0]: row[1:] for row in fig11_ablation(SCALE, SEED).rows}
    md, autocache, costaware, blaze = rows[APP_LABELS[app]]
    tolerance = 1.02
    assert autocache <= md * tolerance, f"{app}: +AutoCache must not regress"
    assert blaze <= costaware * tolerance, f"{app}: full Blaze must not regress"
    assert blaze < md, f"{app}: Blaze beats MEM+DISK Spark end-to-end"
    assert costaware <= autocache * tolerance, f"{app}: +CostAware must not regress"


def test_fig12_blaze_evicts_and_recomputes_less_memory_only():
    """Paper: without disk, Blaze auto-caches only reused partitions and
    picks cheap victims; LR has zero Blaze evictions."""
    data = fig12_memonly_evictions(SCALE, SEED)
    cell = {(row[0], row[1]): (row[2], row[3]) for row in data.rows}
    for app in {row[0] for row in data.rows}:
        spark_ev, spark_rec = cell[(app, "Spark (MEM)")]
        blaze_ev, blaze_rec = cell[(app, "Blaze (MEM)")]
        assert blaze_rec <= spark_rec, f"{app}: Blaze recomputes less than Spark(MEM)"
        assert blaze_ev <= spark_ev, f"{app}: Blaze evicts no more than Spark(MEM)"

    # LR: the auto-cached working set fits, so Blaze never evicts (§7.4).
    assert cell[("LR", "Blaze (MEM)")][0] == 0
    # PR: plain Spark suffers heavy recomputation.
    assert cell[("PR", "Spark (MEM)")][1] > 10 * max(cell[("PR", "Blaze (MEM)")][1], 1.0)


# ----------------------------------------------------------------------
# Design-choice ablation beyond the paper (DESIGN.md §5)
# ----------------------------------------------------------------------
def test_ilp_backend_and_horizon_ablation():
    """The paper fixes horizon = 2 (current + next job) and solves
    exactly; on PR, the workload where partition states matter most,
    nearby horizons stay close to that."""

    def act(**overrides) -> float:
        cfg = dataclasses.replace(BlazeConfig(), **overrides)
        return run_experiment(
            "blaze", "pr", scale=SCALE, seed=SEED, blaze_config=cfg
        ).act_seconds

    baseline = act()
    # The knapsack is stable across 1-4 jobs of horizon.
    assert act(ilp_horizon_jobs=1) <= baseline * 1.1
    assert act(ilp_horizon_jobs=4) <= baseline * 1.1
    # With admission already placing partition states well, disabling
    # the ILP costs little on PR here, and can win by skipping migrations.
    assert act(ilp_enabled=False) >= baseline * 0.85
