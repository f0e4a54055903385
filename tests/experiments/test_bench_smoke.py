"""The engine bench runs clean in smoke mode (tier-1 wiring).

Beyond "the script works", this asserts the counters prove every engine
layer a suite measures is actually engaged:

- faults suite: the seeded schedule lands faults, the faulted run
  converges to the clean result, and the clean side injects nothing;
- obs suite: the recording layer (audit log + sampler) is engaged on the
  obs-on side, fully dead on the obs-off side, leaves every observable
  (evictions, ILP nodes, virtual makespan) untouched, and costs < 10%
  wall-clock overhead; on this pressure cell the epoch cost cache serves
  hits and the victim index re-keys and selects;
- columnar suite: the columnar side encodes record batches and runs
  fused chains through the vectorized kernels, the list side reports
  every columnar counter at zero, evictions/ILP nodes are identical
  between the planes, and both planes fuse chains, pipeline partitions
  and serve ``bytes_for`` memo hits.  (No speedup bar at smoke scale — tiny partitions
  sit below the regime the kernels target; ``BENCH_pr8.json`` carries
  the paper-scale numbers.)
- elastic suite: the fixed-fleet Pareto covers at least three fleet
  sizes with positive provisioned cost, the diurnal schedule lands every
  event class (including a spot preemption), and the elastic run
  converges to the fixed-base-fleet oracle with byte-identical traces
  across repeats.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _run_smoke(tmp_path, *extra):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "scripts" / "bench.py"),
            "--smoke", "--out", str(out), *extra,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    return json.loads(out.read_text(encoding="utf-8"))


def test_bench_smoke_faults(tmp_path):
    doc = _run_smoke(tmp_path, "--suite", "faults")
    faults = doc["faults"]
    assert faults["scale"] == "tiny"
    assert faults["cells"], "smoke must produce at least one fault cell"
    for cell in faults["cells"]:
        clean, faulted = cell["clean"], cell["faulted"]
        # The kill switch is really off on the clean side.  (Only the
        # injection counter: ``stage_resubmits`` legitimately counts
        # fault-free shuffle regeneration after retention drops.)
        assert clean["fault_counters"]["faults_injected"] == 0
        fc = faulted["fault_counters"]
        assert fc["faults_injected"] > 0
        assert (
            fc["executor_crashes"] + fc["fetch_failures"]
            + fc["blocks_lost"] + fc["straggler_tasks_slowed"]
        ) > 0, "the seeded schedule must land at least one fault"
        # Recovery costs virtual time; it never changes the answer.
        assert cell["converged"] is True
        assert faulted["converged"] is True
        assert faulted["act_seconds"] >= clean["act_seconds"]


def test_bench_smoke_obs(tmp_path):
    doc = _run_smoke(tmp_path, "--suite", "obs")
    obs = doc["obs"]
    assert obs["scale"] == "tiny"
    assert obs["cells"], "smoke must produce at least one obs cell"
    for cell in obs["cells"]:
        off, on = cell["obs_off"], cell["obs_on"]
        # The recording layer is engaged ...
        assert on["audit_entries"] > 0
        assert on["samples"] > 0
        # ... and fully dead under the kill switch.
        assert off["audit_entries"] == off["samples"] == 0
        # Pure reader: nothing the run observes may move.
        assert cell["observables_identical"] is True
        assert off["evictions"] == on["evictions"] > 0
        assert off["act_seconds"] == on["act_seconds"]
        # The decision layer is working on this cell.
        for counters in (off["counters"], on["counters"]):
            assert counters["cost_memo_hits"] > 0
            assert counters["victim_index_rekeys"] > 0
            assert counters["victim_selections"] > 0
    overheads = [c["overhead_pct"] for c in obs["cells"]]
    # Wall-clock bound, so tolerate scheduler noise: a cell over the bar
    # gets the whole suite re-measured (the sim itself is deterministic;
    # only the timing is not) before the < 10% acceptance check.
    for _retry in range(2):
        if max(overheads) < 10.0:
            break
        doc = _run_smoke(tmp_path, "--suite", "obs")
        retried = [c["overhead_pct"] for c in doc["obs"]["cells"]]
        overheads = [min(a, b) for a, b in zip(overheads, retried)]
    assert max(overheads) < 10.0, f"obs overhead {overheads}% exceeds the 10% bar"


def test_bench_smoke_columnar(tmp_path):
    doc = _run_smoke(tmp_path, "--suite", "columnar")
    columnar = doc["columnar"]
    assert columnar["scale"] == "tiny"
    assert columnar["cells"], "smoke must produce at least one columnar cell"
    for cell in columnar["cells"]:
        lst, col = cell["list"], cell["columnar"]
        # Every measurement self-identifies its data plane.
        assert lst["backend"] == "list" and col["backend"] == "columnar"
        assert col["codec"] in ("none", "zlib") and col["spill_codec"]
        lc, cc = lst["counters"], col["counters"]
        # The columnar plane is engaged ...
        assert cc["columnar_batches_encoded"] > 0
        assert cc["kernel_chains_compiled"] > 0
        assert cc["kernel_partitions"] > 0
        # ... and fully dead under the kill switch.
        assert lc["columnar_batches_encoded"] == lc["kernel_partitions"] == 0
        assert lc["kernel_chains_compiled"] == lc["codec_transitions"] == 0
        # The fused data plane runs under both representations.
        for counters in (lc, cc):
            assert counters["chains_fused"] > 0
            assert counters["partitions_pipelined"] > 0
            assert counters["bytes_for_memo_hits"] > 0
        # Observables the decision layers see are identical.
        assert lst["evictions"] == col["evictions"]
        assert lc["ilp_nodes"] == cc["ilp_nodes"]
        assert cell["observables_identical"] is True


def test_bench_smoke_scale(tmp_path):
    doc = _run_smoke(tmp_path, "--suite", "scale")
    scale = doc["scale"]
    assert scale["cells"], "smoke must produce at least one scale cell"
    assert scale["all_results_identical"] is True
    assert scale["all_observables_identical"] is True
    for cell in scale["cells"]:
        single = cell["single"]
        # The kill switch really is off on the single-process side ...
        assert all(v == 0 for v in single["shard_counters"].values())
        for mode in ("sharded_local", "sharded_process"):
            m = cell[mode]
            assert m["final_value"] == single["final_value"]
            # ... and the superstep plane is engaged on the sharded sides.
            sc = m["shard_counters"]
            assert sc["tasks_dispatched"] > 0
            assert sc["barrier_syncs"] > 0
            assert sc["shuffle_fetch_rpcs"] > 0
        assert cell["single_dnf"] is False
        # No speedup bar at smoke scale (process spawn dominates tiny
        # cells); BENCH_pr9.json carries the 256/1024-executor numbers.


def test_bench_smoke_elastic(tmp_path):
    doc = _run_smoke(tmp_path, "--suite", "elastic")
    elastic = doc["elastic"]
    assert elastic["cells"], "smoke must produce at least one elastic cell"
    assert elastic["all_converged"] is True
    assert elastic["all_deterministic"] is True
    assert elastic["all_results_identical"] is True
    assert elastic["all_schedules_engaged"] is True
    for cell in elastic["cells"]:
        # The Pareto sweep covers every advertised fleet size ...
        sizes = [p["fleet_size"] for p in cell["pareto"]]
        assert sizes == elastic["fleet_sizes"]
        assert len(sizes) >= 3
        for point in cell["pareto"]:
            assert point["fleet_seconds"] > 0
            assert point["cost_per_job"] > 0
            assert point["jobs"] > 0
        # ... and fleet size never moves the computed answer.
        assert cell["results_identical"] is True
        d = cell["diurnal"]
        # The diurnal schedule really fired: every event class landed,
        # including the spot preemption (lineage recovery engaged).
        counters = d["elastic_counters"]
        assert counters["scale_events"] == d["schedule_events"] >= 4
        assert counters["preemptions"] >= 1
        assert counters["scale_ups"] >= 1
        assert counters["scale_downs"] >= 1
        assert counters["executors_added"] >= 1
        assert counters["executors_removed"] >= 1
        # Provisioned cost is a step integral over the fleet.scale trace;
        # it must be positive and the per-job figure derived from it.
        assert d["fleet_seconds"] > 0
        assert d["cost_per_job"] > 0
        # Correctness oracle: the elastic run converges to the fixed
        # base-fleet answer and replays byte-identically.
        assert d["converged"] is True
        assert d["deterministic"] is True


def test_bench_smoke_profile_mode(tmp_path):
    doc = _run_smoke(tmp_path, "--profile", "--suite", "faults")
    for cell in doc["faults"]["cells"]:
        for mode in ("clean", "faulted"):
            top = cell[mode]["profile_top"]
            assert top, "--profile must attach a cProfile top-N"
            assert any("run_experiment" in line or "repro" in line for line in top)
