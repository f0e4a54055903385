"""End-to-end tracing: real workloads, determinism, and replay."""

import pytest

from repro.config import ClusterConfig, DiskConfig, GiB, MiB
from repro.dataflow.context import BlazeContext
from repro.experiments.runner import run_experiment, tiny_cluster
from repro.systems import make_system
from repro.tracing import InMemoryTracer, PROFILER_PID, RunReport, to_jsonl
from repro.workloads.registry import make_workload


def traced_cell(system: str, seed: int = 3):
    tracer = InMemoryTracer()
    result = run_experiment(system, "pr", scale="tiny", seed=seed, tracer=tracer)
    return result, tracer


def test_trace_jsonl_byte_identical_across_same_seed_runs():
    a, tracer_a = traced_cell("blaze")
    b, tracer_b = traced_cell("blaze")
    assert to_jsonl(tracer_a.events) == to_jsonl(tracer_b.events)
    assert a.act_seconds == pytest.approx(b.act_seconds)


def test_tracing_does_not_change_virtual_time_or_metrics():
    plain = run_experiment("blaze", "pr", scale="tiny", seed=3)
    traced, tracer = traced_cell("blaze")
    assert tracer.events, "traced run produced events"
    assert traced.act_seconds == pytest.approx(plain.act_seconds)
    assert traced.total_task_seconds == pytest.approx(plain.total_task_seconds)
    assert traced.eviction_count == plain.eviction_count
    assert traced.disk_bytes_written_total == pytest.approx(
        plain.disk_bytes_written_total
    )


def test_trace_has_nested_job_stage_task_spans():
    result, tracer = traced_cell("spark_mem_disk")
    spans = [e for e in tracer.events if e.kind == "span"]
    jobs = {e.span_id: e for e in spans if e.name == "job"}
    stages = [e for e in spans if e.name == "stage"]
    tasks = [e for e in spans if e.name == "task"]
    assert jobs and stages and tasks
    for s in stages:
        assert s.parent_id in jobs, "stage nests under a job"
    for t in tasks:
        assert t.args["total_s"] == pytest.approx(t.dur, abs=1e-9)
    assert result.report is not None and result.report.traced


def test_profiling_phase_appears_on_profiler_pid():
    _result, tracer = traced_cell("blaze")
    prof = [e for e in tracer.events if e.pid == PROFILER_PID]
    assert any(e.name == "profiling" and e.kind == "span" for e in prof)
    assert any(e.name == "profiling.job" for e in prof)


def test_report_replay_job_timelines_and_hit_ratio():
    result, _tracer = traced_cell("spark_mem_disk")
    report = result.report
    timelines = report.job_timelines()
    assert len(timelines) == report.job_count
    for t in timelines:
        assert t.end >= t.start >= 0.0
    # PageRank re-reads cached ranks/links: some hits must be observed
    series = report.hit_miss_series()
    assert series and series[-1].hits > 0
    assert 0.0 < report.hit_ratio() <= 1.0


def test_report_eviction_timeline_matches_ledger():
    tracer = InMemoryTracer()
    config = ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=24 * MiB,
        disk=DiskConfig(capacity_bytes=10 * GiB),
    )
    result = run_experiment(
        "spark_mem_disk", "pr", scale="tiny", seed=3,
        cluster_config=config, tracer=tracer,
    )
    report = result.report
    timeline = report.eviction_timeline()
    assert len(timeline) == report.eviction_count
    assert timeline == sorted(timeline, key=lambda ev: ev.ts)
    for eid, points in report.evicted_bytes_series().items():
        assert points[-1][1] == pytest.approx(report.evicted_bytes_by_executor[eid])
    # filtering by executor partitions the timeline
    assert sum(
        len(report.eviction_timeline(eid))
        for eid in report.evicted_bytes_by_executor
    ) == len(timeline)


def test_untraced_report_replay_is_empty():
    result = run_experiment("spark_mem_disk", "pr", scale="tiny", seed=3)
    report = result.report
    assert not report.traced
    assert report.job_timelines() == []
    assert report.eviction_timeline() == []
    assert report.hit_ratio() == 0.0


def test_cluster_config_tracing_flag_builds_tracer():
    """The cluster config carries no tracing flag: ``tracer=`` is the switch."""
    config = ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=64 * MiB,
        disk=DiskConfig(capacity_bytes=10 * GiB),
    )
    untraced = BlazeContext(config, make_system("spark_mem_disk").build(), seed=1)
    assert not untraced.tracer.enabled
    untraced.stop()
    ctx = BlazeContext(
        config, make_system("spark_mem_disk").build(), seed=1,
        tracer=InMemoryTracer(),
    )
    assert ctx.tracer.enabled
    make_workload("pr", "tiny").run(ctx)
    report = ctx.report()
    assert report.traced
    ctx.stop()


def test_context_stop_is_idempotent_and_releases_blocks():
    ctx = BlazeContext(tiny_cluster(), make_system("spark_mem_disk").build(), seed=3)
    make_workload("pr", "tiny").run(ctx)
    before = RunReport.from_context(ctx)
    ctx.stop()
    ctx.stop()  # second stop must be a no-op, not an error
    for executor in ctx.cluster.executors:
        assert len(executor.bm.memory) == 0
        assert len(executor.bm.disk) == 0
    assert ctx.cluster.shuffle.registered_shuffles() == []
    # metric ledgers survive shutdown unchanged
    after = ctx.report()
    assert after.eviction_count == before.eviction_count
    assert after.total_seconds == pytest.approx(before.total_seconds)
    assert after.disk_bytes_written_total == pytest.approx(
        before.disk_bytes_written_total
    )


def test_repeated_contexts_do_not_leak_blocks():
    acts = []
    for _ in range(2):
        ctx = BlazeContext(tiny_cluster(), make_system("blaze_no_profile").build(), seed=3)
        make_workload("pr", "tiny").run(ctx)
        acts.append(ctx.now)
        ctx.stop()
    assert acts[0] == pytest.approx(acts[1])
