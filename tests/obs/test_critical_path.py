"""Acceptance: critical-path attributions sum to each job's latency.

The analyzer reconstructs the job → stage → task span DAG from the trace
and splits every job's submit-to-finish virtual latency into buckets
(queueing, compute, recompute, shuffle, disk I/O, remote reads, slot
wait, coordination).  The accounting identity — bucket sum ≡ end-to-end
latency — must hold to 1e-9 for every job, on an inline eviction-heavy
run and on a multi-tenant service run with real cross-job queueing.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config import (
    BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ObsConfig,
)
from repro.experiments.runner import run_experiment
from repro.obs.critical_path import BUCKETS, analyze_critical_paths
from repro.service import JobService
from repro.tracing import InMemoryTracer, TraceEvent
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

TOL = 1e-9


def _pressure_report():
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
    assert result.eviction_count > 0
    return result.report


def test_attribution_sums_to_latency_inline():
    report = _pressure_report()
    cp = report.critical_path()
    assert cp.jobs, "the traced run must yield at least one job"
    for job in cp.jobs:
        assert abs(job.latency - job.total) < TOL, (
            f"job {job.job_id}: buckets sum to {job.total}, latency {job.latency}"
        )
        assert job.latency > 0
        assert job.compute > 0, "critical tasks always spend compute time"
        assert job.stages > 0 and job.critical_tasks > 0
        # Every bucket is a duration share of the critical chain.
        assert all(job.buckets()[name] > -TOL for name in BUCKETS)


def test_totals_aggregate_the_per_job_rows():
    report = _pressure_report()
    cp = report.critical_path()
    totals = cp.totals()
    # PageRank ranks-by-links joins shuffle every iteration, so shuffle
    # time must land on the critical path of this run.
    assert totals["shuffle"] > 0
    # Aggregations are plain sums over the per-job rows.
    for name in BUCKETS:
        assert abs(totals[name] - sum(j.buckets()[name] for j in cp.jobs)) < TOL
    first = cp.jobs[0]
    assert cp.job(first.job_id) == first
    assert cp.job(10_000) is None


def _span(seq, name, ts, dur, *, pid=1, tid=1, span_id=None, parent=None, **args):
    return TraceEvent(
        seq=seq, kind="span", name=name, cat=name, ts=ts, dur=dur,
        pid=pid, tid=tid, span_id=span_id, parent_id=parent, args=args,
    )


def test_bucket_attribution_on_a_hand_built_dag():
    # One job (0..10s), one stage (1..9s), two slots: the critical slot
    # runs two tasks (3s compute-ish + 2s all-recompute, 1s gap between
    # them => wait), the other slot finishes early and must be ignored.
    events = [
        _span(0, "job", 0.0, 10.0, pid=0, tid=0, span_id=1, job_id=0),
        _span(1, "stage", 1.0, 8.0, pid=0, tid=0, span_id=2, parent=1),
        _span(2, "task", 1.0, 3.0, span_id=3, parent=2,
              total_s=3.0, recompute_s=0.0, shuffle_s=1.0, disk_io_s=0.5,
              remote_read_s=0.0),
        _span(3, "task", 5.0, 2.0, span_id=4, parent=2,
              total_s=2.0, recompute_s=2.0, shuffle_s=0.0, disk_io_s=0.0,
              remote_read_s=0.0),
        _span(4, "task", 1.0, 1.0, pid=2, span_id=5, parent=2,
              total_s=1.0, recompute_s=0.0, shuffle_s=0.0, disk_io_s=0.0,
              remote_read_s=0.0),
    ]
    rec = SimpleNamespace(job_id=0, tenant="alice", submit_time=-0.5)
    cp = analyze_critical_paths(events, [rec])
    (job,) = cp.jobs
    assert job.tenant == "alice"
    assert job.queueing == 0.5          # submit at -0.5, start at 0.0
    assert job.recompute == 2.0         # the second chained task, entirely
    assert job.shuffle == 1.0
    assert job.disk_io == 0.5
    assert job.compute == 1.5           # 3.0 - shuffle - disk_io
    assert job.wait == 3.0              # 8s stage - 5s chained task time
    assert job.coordination == pytest.approx(2.0)  # job time outside the stage
    assert job.critical_tasks == 2 and job.stages == 1
    assert abs(job.total - job.latency) < TOL
    assert cp.by_tenant() == {"alice": job.buckets()}


def test_scaled_ledger_split_preserves_the_duration():
    # A faulted task whose traced duration (4s, incl. retry overhead)
    # exceeds its metric ledger (2s): buckets scale proportionally and
    # the compute residual keeps the sum exact.
    events = [
        _span(0, "job", 0.0, 4.0, pid=0, tid=0, span_id=1, job_id=0),
        _span(1, "stage", 0.0, 4.0, pid=0, tid=0, span_id=2, parent=1),
        _span(2, "task", 0.0, 4.0, span_id=3, parent=2,
              total_s=2.0, recompute_s=1.0, shuffle_s=0.5, disk_io_s=0.0,
              remote_read_s=0.0),
    ]
    (job,) = analyze_critical_paths(events).jobs
    assert job.recompute == 2.0 and job.shuffle == 1.0
    assert job.compute == 1.0
    assert abs(job.total - job.latency) < TOL
    # A task with no ledger at all books its whole duration as wait.
    events[2] = _span(2, "task", 0.0, 4.0, span_id=3, parent=2, total_s=0.0)
    (job,) = analyze_critical_paths(events).jobs
    assert job.wait == 4.0 and job.compute == 0.0
    assert abs(job.total - job.latency) < TOL


def test_report_memoizes_the_analysis():
    report = _pressure_report()
    assert report.critical_path() is report.critical_path()


def _iterative_app(client):
    data = client.parallelize(range(60), 4)
    total = 0.0
    for i in range(3):
        step = data.map(lambda x, k=i: x * (k + 1))
        total += sum(client.run_job(step, lambda _s, part: sum(part)))
    return total


def test_attribution_sums_on_a_multi_tenant_service_run():
    config = ClusterConfig(
        num_executors=2, slots_per_executor=2,
        memory_store_bytes=256 * MiB,
    )
    with JobService(
        config, tracer=InMemoryTracer(),
        blaze_config=BlazeConfig(obs=ObsConfig(enabled=True)),
    ) as service:
        h1 = service.submit(_iterative_app, tenant="alice", arrival_time=0.0)
        h2 = service.submit(_iterative_app, tenant="bob", arrival_time=0.0)
        service.run()
        report = h1.report()

    cp = report.critical_path()
    assert len(cp.jobs) == len(report.job_records) == 6
    for job in cp.jobs:
        assert abs(job.latency - job.total) < TOL
        assert job.queueing >= 0

    # Both tenants submitted at t=0 on one shared driver, so somebody's
    # jobs waited: the queueing bucket must carry real cross-job delay,
    # and it must match the service's own queue-delay ledger exactly.
    by_record = {r.job_id: r for r in report.job_records}
    for job in cp.jobs:
        rec = by_record[job.job_id]
        assert job.tenant == rec.tenant
        assert abs(job.queueing - rec.queue_delay) < TOL
        assert abs(job.latency - rec.latency) < TOL
    assert max(j.queueing for j in cp.jobs) > 0

    tenants = cp.by_tenant()
    assert set(tenants) == {"alice", "bob"}
    for name in BUCKETS:
        assert abs(
            cp.totals()[name]
            - tenants["alice"][name] - tenants["bob"][name]
        ) < TOL
    assert h2.done
