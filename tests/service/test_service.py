"""The JobService submission API: handles, arrivals, determinism, errors."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, MiB, ServiceConfig
from repro.dataflow.context import BlazeContext
from repro.errors import DataflowError, ServiceError
from repro.service import JobService
from repro.service.service import SERVICE_PID
from repro.tracing import InMemoryTracer, to_jsonl


def _cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=2, slots_per_executor=2, memory_store_bytes=256 * MiB,
    )


def _sum_app(client):
    data = client.parallelize(range(100), 4)
    return sum(client.run_job(data, lambda _s, part: sum(part)))


def _iterative_app(client):
    data = client.parallelize(range(60), 4)
    total = 0.0
    for i in range(3):
        step = data.map(lambda x, k=i: x * (k + 1))
        total += sum(client.run_job(step, lambda _s, part: sum(part)))
    return total


# ----------------------------------------------------------------------
# Submission API
# ----------------------------------------------------------------------
def test_submit_run_result_roundtrip():
    with JobService(_cluster()) as service:
        handle = service.submit(_sum_app, tenant="alice")
        assert not handle.done
        with pytest.raises(ServiceError, match="has not completed"):
            handle.result()
        service.run()
        assert handle.done
        assert handle.result() == sum(range(100))
        assert handle.tenant == "alice"
        assert handle.latency > 0


def test_handles_carry_per_job_records():
    with JobService(_cluster()) as service:
        h1 = service.submit(_iterative_app, tenant="a", arrival_time=0.0)
        h2 = service.submit(_sum_app, tenant="b", arrival_time=0.0)
        service.run()
        assert len(h1.job_records) == 3
        assert len(h2.job_records) == 1
        assert all(r.tenant == "a" for r in h1.job_records)
        assert all(r.latency >= r.queue_delay >= 0 for r in service.job_records)
        assert len(service.job_latencies()) == 4
        counters = service.metrics.service_counters()
        assert counters["service_apps"] == 2
        assert counters["service_jobs"] == 4


def test_arrival_times_gate_admission_on_the_virtual_clock():
    with JobService(_cluster()) as service:
        late = service.submit(_sum_app, tenant="b", arrival_time=50.0)
        early = service.submit(_sum_app, tenant="a", arrival_time=1.0)
        service.run()
        assert early.job_records[0].submit_time >= 1.0
        assert late.job_records[0].submit_time >= 50.0
        assert service.now >= 50.0


def test_default_arrivals_come_from_the_seeded_process():
    def build():
        service = JobService(_cluster(), seed=11)
        return service, [service.submit(_sum_app) for _ in range(3)]

    s1, h1 = build()
    s2, h2 = build()
    times1 = [h.arrival_time for h in h1]
    times2 = [h.arrival_time for h in h2]
    assert times1 == times2, "same service seed, same schedule"
    assert times1 == sorted(times1) and times1[0] > 0
    s1.shutdown(), s2.shutdown()


def test_application_errors_surface_through_the_handle():
    def boom(client):
        client.parallelize(range(10), 2)
        raise RuntimeError("app exploded")

    with JobService(_cluster()) as service:
        ok = service.submit(_sum_app, tenant="a", arrival_time=0.0)
        bad = service.submit(boom, tenant="b", arrival_time=0.0)
        service.run()
        assert ok.result() == sum(range(100))
        with pytest.raises(RuntimeError, match="app exploded"):
            bad.result()


def test_submit_validation():
    service = JobService(_cluster())
    with pytest.raises(ServiceError):
        service.submit("not callable")
    with pytest.raises(ServiceError):
        service.submit(_sum_app, tenant="")
    with pytest.raises(ServiceError):
        service.submit(_sum_app, arrival_time=-1.0)
    service.shutdown()
    with pytest.raises(ServiceError):
        service.submit(_sum_app)
    with pytest.raises(ServiceError):
        service.run()
    with pytest.raises(ServiceError):
        service.session()
    service.shutdown()  # idempotent


# ----------------------------------------------------------------------
# Sessions (inline clients)
# ----------------------------------------------------------------------
def test_sessions_run_inline_and_share_the_engine():
    with JobService(_cluster()) as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        data_a = a.parallelize(range(10), 2)
        assert a.run_job(data_a, lambda _s, p: sum(p)) is not None
        data_b = b.parallelize(range(10), 2)
        b.run_job(data_b, lambda _s, p: sum(p))
        assert a.cluster is b.cluster is service.cluster
        assert [r.tenant for r in service.job_records] == ["a", "b"]
        assert all(r.app_seq == -1 for r in service.job_records)


def test_stopped_client_rejects_jobs_and_cross_client_rdds():
    with JobService(_cluster()) as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        data = a.parallelize(range(10), 2)
        with pytest.raises(DataflowError, match="different context"):
            b.run_job(data, lambda _s, p: p)
        a.stop()
        with pytest.raises(DataflowError, match="already stopped"):
            a.run_job(data, lambda _s, p: p)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _sized_app(num_elements: int):
    def app(client):
        data = client.parallelize(range(num_elements), 4)
        total = 0.0
        for i in range(3):
            step = data.map(lambda x, k=i: x * (k + 1))
            total += sum(client.run_job(step, lambda _s, part: sum(part)))
        return total

    return app


def _trace_stream(policy: str) -> str:
    tracer = InMemoryTracer()
    service = JobService(
        _cluster(), seed=3, tracer=tracer,
        service_config=ServiceConfig(inter_job_policy=policy),
    )
    # Distinguishable apps, all pending at t=0, so the inter-job policy's
    # grant order is visible in the merged trace.
    for i in range(6):
        service.submit(_sized_app(40 + 8 * i), tenant=f"t{i % 3}",
                       name=f"app{i}", arrival_time=0.0)
    service.run()
    service.shutdown()
    return to_jsonl(tracer.events)


@pytest.mark.parametrize("policy", ["fifo", "fair"])
def test_same_seed_streams_trace_byte_identically(policy):
    assert _trace_stream(policy) == _trace_stream(policy)


def test_policies_actually_change_the_interleaving():
    assert _trace_stream("fifo") != _trace_stream("fair")


# ----------------------------------------------------------------------
# Service trace instants
# ----------------------------------------------------------------------
def test_service_events_are_opt_in():
    """Only submitted applications emit ``service.*`` instants: a traced
    submission carries them, a traced ``BlazeContext`` session none."""
    tracer = InMemoryTracer()
    service = JobService(_cluster(), tracer=tracer)
    service.submit(_sum_app, tenant="a", arrival_time=0.0)
    service.run()
    service.shutdown()
    names = [e.name for e in tracer.events if e.pid == SERVICE_PID]
    assert "service.app_admitted" in names
    assert "service.grant" in names
    assert "service.app_done" in names

    tracer = InMemoryTracer()
    with BlazeContext(_cluster(), tracer=tracer) as ctx:
        assert _sum_app(ctx) == sum(range(100))
    assert tracer.events, "the context run is traced"
    assert [e for e in tracer.events if e.pid == SERVICE_PID] == []
