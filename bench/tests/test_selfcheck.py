"""Self-check of the benchmark on its ``--smoke`` sizing.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import run, trace, workloads  # noqa: E402 - needs the path above

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def result_of(capsys, *argv: str) -> dict:
    code = run.main(list(argv))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    return result


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_emitted_with_its_unit(capsys, monkeypatch, workload):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for trace_flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_of(
            capsys, "--workload", workload, "--smoke", "--seconds", "0.1", "--trace", trace_flag
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["metrics"].keys() == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            emitted = result["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"]
            assert isinstance(emitted["value"], (int, float))
            if section == "end_to_end":
                assert emitted["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_simulated_metrics_repeat_exactly(workload):
    def once() -> dict:
        scenario = workloads.WORKLOADS[workload](3, True)
        return run.simulated_metrics(
            workloads, scenario.run(workloads.BLAZE), scenario.run(workloads.REFERENCE)
        )

    assert once() == once()


@pytest.mark.parametrize("workload", NAMES)
def test_self_times_sum_to_the_root_span_and_wrappers_come_off(workload):
    scenario = workloads.WORKLOADS[workload](3, True)
    recorder = trace.SpanRecorder(scenario.name, scenario.workload_class)
    originals = recorder.wrapped_attributes()
    with recorder:
        assert any(vars(o)[a] is not fn for o, a, fn in originals)
        recorder.call(scenario.run, workloads.BLAZE)
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, f"{owner.__name__}.{attr} still wrapped"
    assert trace.ilp.solve_partition_states is sys.modules["repro.core.udl"].solve_partition_states

    spans = recorder.spans()
    root = spans[0]
    assert root.name == trace.ROOT and root.parent == -1
    assert all(0 <= s.parent < i for i, s in enumerate(spans) if i)
    self_s = trace.self_seconds(spans)
    assert sum(self_s.values()) == pytest.approx(root.end_s - root.start_s, abs=1e-6)
    assert self_s["cluster.driver"] > 0 and self_s["core.udl"] > 0
