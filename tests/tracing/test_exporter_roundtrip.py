"""Exporter round-trips: JSONL is lossless, Chrome docs match the spans.

Archived traces must feed the same replay tooling as live ones, so
``from_jsonl(to_jsonl(events))`` has to reproduce every event exactly,
and the Chrome ``trace_event`` export has to carry one complete-span row
per traced span with matching names and (microsecond) timestamps.
"""

from __future__ import annotations

import pytest

from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ObsConfig
from repro.experiments.runner import run_experiment
from repro.tracing import InMemoryTracer, from_jsonl, read_jsonl, to_chrome, to_jsonl, write_jsonl
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload


@pytest.fixture(scope="module")
def run():
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    result = run_experiment(
        "blaze", wl, scale="tiny", seed=3,
        cluster_config=ClusterConfig(
            num_executors=2, slots_per_executor=2,
            memory_store_bytes=24 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        blaze_config=BlazeConfig(obs=ObsConfig(enabled=True)),
        tracer=InMemoryTracer(),
    )
    assert result.report.events
    return result


def test_jsonl_round_trip_is_lossless(run):
    events = list(run.report.events)
    text = to_jsonl(events)
    assert from_jsonl(text) == events
    # Re-serializing the parsed events reproduces the bytes, so an
    # archived file keeps working as a determinism oracle.
    assert to_jsonl(from_jsonl(text)) == text


def test_jsonl_file_round_trip(run, tmp_path):
    events = list(run.report.events)
    path = tmp_path / "trace.jsonl"
    write_jsonl(events, str(path))
    assert read_jsonl(str(path)) == events


def test_from_jsonl_skips_blank_lines():
    assert from_jsonl("\n  \n") == []


def test_chrome_export_matches_the_jsonl_spans(run):
    events = list(run.report.events)
    doc = to_chrome(events)
    rows = doc["traceEvents"]

    spans = sorted(
        (e for e in events if e.kind == "span"), key=lambda e: (e.ts, e.seq)
    )
    points = [e for e in events if e.kind != "span"]
    x_rows = [r for r in rows if r["ph"] == "X"]
    i_rows = [r for r in rows if r["ph"] == "i"]

    # One complete-span row per span, one instant per point event.
    assert len(x_rows) == len(spans)
    assert len(i_rows) == len(points)

    # Names, timestamps (virtual µs), and durations line up row-for-row.
    for row, span in zip(x_rows, spans):
        assert row["name"] == span.name
        assert row["ts"] == pytest.approx(span.ts * 1e6, abs=1e-3)
        assert row["dur"] == pytest.approx((span.dur or 0.0) * 1e6, abs=1e-3)
        assert row["pid"] == span.pid and row["tid"] == span.tid

    # Metadata names every process and every thread exactly once.
    meta = [r for r in rows if r["ph"] == "M"]
    procs = {r["pid"] for r in meta if r["name"] == "process_name"}
    threads = {(r["pid"], r["tid"]) for r in meta if r["name"] == "thread_name"}
    assert procs == {e.pid for e in events}
    assert threads == {(e.pid, e.tid) for e in events}


def test_report_replay_methods_are_memoized(run):
    import dataclasses

    report = run.report
    twin = dataclasses.replace(report)  # field-equal, memo-free copy
    assert report.job_timelines() is report.job_timelines()
    assert report.evicted_bytes_series() is report.evicted_bytes_series()
    assert report.hit_miss_series() is report.hit_miss_series()
    # Memoization never leaks into dataclass equality.
    assert report == twin
    # ... and the memo-free copy replays to the same answers.
    assert twin.job_timelines() == report.job_timelines()
