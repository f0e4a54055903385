"""Multi-tenant service runs are trace-identical under the sharded engine."""

from __future__ import annotations

from repro.config import BlazeConfig, ClusterConfig, MiB
from repro.service import JobService
from repro.tracing import InMemoryTracer, to_jsonl

SEED = 3


def _sum_app(client):
    data = client.parallelize(range(120), 6)
    squared = data.map(lambda x: x * x).cache()
    return sum(client.run_job(squared, lambda _s, part: sum(part)))


def _iterative_app(client):
    data = client.parallelize(range(90), 6)
    total = 0.0
    for i in range(3):
        step = data.map(lambda x, k=i: (x % 9, x * (k + 1))).reduce_by_key(
            lambda a, b: a + b
        )
        total += sum(client.run_job(step, lambda _s, part: sum(v for _, v in part)))
    return total


def _service_run(sharded: bool, transport: str = "local"):
    tracer = InMemoryTracer()
    config = ClusterConfig(
        num_executors=4, slots_per_executor=2, memory_store_bytes=8 * MiB,
    )
    bcfg = BlazeConfig(
        sharded_engine=sharded, num_shards=3, shard_transport=transport
    )
    with JobService(config, seed=SEED, tracer=tracer, blaze_config=bcfg) as service:
        h1 = service.submit(_iterative_app, tenant="a", arrival_time=0.0)
        h2 = service.submit(_sum_app, tenant="b", arrival_time=0.0)
        h3 = service.submit(_sum_app, tenant="c", arrival_time=2.0)
        service.run()
        results = (h1.result(), h2.result(), h3.result())
    return results, to_jsonl(tracer.events)


def test_sharded_service_trace_is_byte_identical():
    results_off, trace_off = _service_run(False)
    results_on, trace_on = _service_run(True)
    assert trace_off, "the oracle needs a non-empty trace"
    assert results_off == results_on
    assert trace_off == trace_on


def test_sharded_service_trace_is_byte_identical_process_transport():
    results_off, trace_off = _service_run(False)
    results_on, trace_on = _service_run(True, "process")
    assert results_off == results_on
    assert trace_off == trace_on
