"""The observability layer is a cheap, pure reader on a pressure cell.

One tiny PageRank cell under memory pressure (24 partitions, 9
iterations, 2 executors with 24 MiB each) runs with ``BlazeConfig.obs``
off, then on.  With obs on, the decision audit log and the occupancy
sampler record; with it off, neither does.  Either way the run itself
must not move, and recording must cost under 10 % of the process's CPU
time, which (unlike wall time) another process on the cores does not
inflate.
"""

from __future__ import annotations

import time

import pytest

from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ObsConfig
from repro.experiments.runner import RunResult, run_experiment
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

SEED = 3
#: the sim is deterministic, so repeats only de-noise the timer: keep the
#: fastest of up to this many runs per side, within this budget per side
MAX_REPEATS = 9
BUDGET_S = 40.0
#: whole-cell re-measures allowed before the bar is judged
RETRIES = 2
OVERHEAD_BAR_PCT = 10.0


def _run(obs: bool) -> RunResult:
    # More iterations stretch the cell so timer noise stays well under
    # the bar.
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24, iterations=9)
    return run_experiment(
        "blaze", wl, scale="tiny", seed=SEED,
        cluster_config=ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=24 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        blaze_config=BlazeConfig(obs=ObsConfig(enabled=obs)),
    )


def _overhead_pct() -> tuple[float, RunResult, RunResult]:
    # Alternate the sides, so that a slow spell on the host lands on both.
    cpu: dict[bool, list[float]] = {False: [], True: []}
    results: dict[bool, RunResult] = {}
    while all(len(t) < MAX_REPEATS and sum(t) <= BUDGET_S for t in cpu.values()):
        for obs in (False, True):
            t0 = time.process_time()
            results[obs] = _run(obs)
            cpu[obs].append(time.process_time() - t0)
    off_cpu, on_cpu = min(cpu[False]), min(cpu[True])
    return (on_cpu - off_cpu) / max(off_cpu, 1e-9) * 100.0, results[False], results[True]


@pytest.fixture(scope="module")
def cell() -> tuple[float, RunResult, RunResult]:
    return _overhead_pct()


def test_obs_records_only_when_enabled(cell):
    _, off, on = cell
    assert len(on.report.audit_entries) > 0
    assert len(on.report.samples) > 0
    assert len(off.report.audit_entries) == len(off.report.samples) == 0


def test_obs_leaves_the_run_untouched(cell):
    _, off, on = cell
    assert off.eviction_count == on.eviction_count > 0
    assert off.act_seconds == on.act_seconds
    assert (
        off.report.decision_counters["ilp_nodes"]
        == on.report.decision_counters["ilp_nodes"]
    )


def test_decision_layer_is_engaged(cell):
    # the epoch cost cache serves hits, the victim index re-keys and selects
    _, off, on = cell
    for result in (off, on):
        counters = result.report.decision_counters
        assert counters["cost_memo_hits"] > 0
        assert counters["victim_index_rekeys"] > 0
        assert counters["victim_selections"] > 0


def test_obs_overhead_is_under_ten_percent(cell):
    # A CPU-time bar: a measurement over it gets the whole cell
    # re-measured, and the best of the attempts is judged.
    overhead = cell[0]
    for _retry in range(RETRIES):
        if overhead < OVERHEAD_BAR_PCT:
            break
        overhead = min(overhead, _overhead_pct()[0])
    assert overhead < OVERHEAD_BAR_PCT, f"obs overhead {overhead:.1f}% exceeds the bar"
