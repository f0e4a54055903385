"""Blaze in the service: references are counted over every live application.

The pin for ROADMAP's "Blaze never loses to MEM+DISK on a stream": a
smoke-sized open-loop stream of identical applications (all lineage
deduplicated) must finish no later under ``blaze`` than under
``spark_mem_disk``, through blocks one tenant cached and another read.
And the other direction: applications that share nothing must decide
exactly as they do alone.
"""

from __future__ import annotations

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    GiB,
    MiB,
    ObsConfig,
    ServiceConfig,
)
from repro.core.profiler import run_dependency_extraction
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.service import JobService
from repro.systems.presets import make_system
from repro.tracing import InMemoryTracer, to_jsonl
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

SEED = 3
APPS = 12
TENANTS = 3


def _cluster(memory_mib: int = 24) -> ClusterConfig:
    return ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=memory_mib * MiB,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )


def _stream(system: str):
    """12 tiny PageRanks from 3 tenants, seeded Poisson arrivals, fair share.

    Returns ``(makespan incl. profiling, shared hits, results, trace)``.
    """
    wl = replace_params(make_workload("pr", "tiny"), iterations=2)
    spec = make_system(system)
    bcfg = BlazeConfig()
    tracer = InMemoryTracer()
    profile = None
    if spec.needs_profile:
        profile = run_dependency_extraction(
            wl.profiling_run_fn(bcfg.profiling_sample_fraction), bcfg,
            seed=SEED, tracer=tracer,
        )
    service = JobService(
        _cluster(), spec.build(profile=profile, blaze_config=bcfg),
        seed=SEED, tracer=tracer, blaze_config=bcfg,
        service_config=ServiceConfig(
            inter_job_policy="fair", arrival_seed=SEED, arrival_rate_per_sec=0.25
        ),
    )
    with service:
        for i in range(APPS):
            service.submit(
                lambda client: wl.run(client).final_value, tenant=f"tenant{i % TENANTS}"
            )
        results = [handle.result() for handle in service.run()]
        makespan = service.now + (profile.virtual_seconds if profile else 0.0)
        shared_hits = service.metrics.shared_hits
    return makespan, shared_hits, results, to_jsonl(tracer.events)


def test_blaze_keeps_up_with_mem_and_disk_on_a_shared_stream():
    blaze_makespan, blaze_shared, blaze_results, blaze_trace = _stream("blaze")
    spark_makespan, spark_shared, spark_results, _ = _stream("spark_mem_disk")
    assert spark_shared > 0, "the stream must offer blocks to share"
    assert blaze_shared > 0, "Blaze must read blocks another tenant cached"
    assert blaze_makespan <= 1.05 * spark_makespan
    assert blaze_results == spark_results
    assert _stream("blaze")[3] == blaze_trace, "same seed, same bytes"


# ----------------------------------------------------------------------
# Applications that share nothing decide as they do alone
# ----------------------------------------------------------------------
def _ladder(client):
    """Narrow iterative app: every job re-reads ``base`` and the last rung."""
    base = client.source(
        lambda _s, rng: rng.random(6).tolist(), 4,
        op_cost=OpCost(per_element_out=1e-2),
        size_model=SizeModel(bytes_per_element=0.5 * MiB), name="base",
    ).cache()
    rungs, prev = [], base
    for i in range(5):
        prev = prev.zip_partitions(
            base, lambda _s, a, b: [x + y for x, y in zip(a, b)], name=f"rung{i}"
        ).cache()
        rungs.append(prev)
    return [lambda r=r: client.run_job(r, lambda _s, part: len(part)) for r in rungs]


def _tally(client):
    """Shuffling iterative app: one ``reduce_by_key`` per job over a cached input."""
    pairs = client.source(
        lambda _s, rng: [(int(k), 1) for k in rng.integers(0, 16, 32)], 4,
        op_cost=OpCost(per_element_out=5e-3),
        size_model=SizeModel(bytes_per_element=0.1 * MiB), name="pairs",
    ).cache()
    jobs = []
    for i in range(4):
        counts = pairs.map(lambda kv, i=i: (kv[0] + i, kv[1]), name=f"shift{i}").reduce_by_key(
            lambda a, b: a + b, 4, name=f"counts{i}"
        )
        jobs.append(lambda c=counts: client.run_job(c, lambda _s, part: len(part)))
    return jobs


def _decisions(report, client, until=float("inf")) -> tuple[list[tuple], list[tuple]]:
    """The client's caching decisions, in ids no other application shifts.

    ``(admissions and rejections from the audit log, auto-unpersists from
    the trace up to virtual time ``until``)``, each in order; a dataset is
    named by its registration index within its own application.
    """
    local = {rdd.rdd_id: i for i, rdd in enumerate(client.all_rdds())}
    decided = [
        (e.kind, e.outcome, e.reason, local[e.rdd_id], e.split, e.term("refs"))
        for e in report.audit_entries
        if e.kind != "ilp" and e.rdd_id in local
    ]
    dropped = [
        (local[e.args["rdd"]], e.args["split"])
        for e in report.events
        if e.name == "cache.unpersist" and e.args["rdd"] in local and e.ts <= until
    ]
    return decided, dropped


def _alone(app) -> tuple[list[tuple], list[tuple]]:
    bcfg = BlazeConfig(obs=ObsConfig(enabled=True))
    ctx = BlazeContext(
        _cluster(memory_mib=256), make_system("blaze_no_profile").build(blaze_config=bcfg),
        seed=SEED, tracer=InMemoryTracer(), blaze_config=bcfg,
    )
    for job in app(ctx):
        job()
    decisions = _decisions(ctx.report(), ctx)
    ctx.stop()
    return decisions


def test_disjoint_applications_decide_as_they_do_alone():
    bcfg = BlazeConfig(obs=ObsConfig(enabled=True))
    service = JobService(
        _cluster(memory_mib=256), make_system("blaze_no_profile").build(blaze_config=bcfg),
        seed=SEED, tracer=InMemoryTracer(), blaze_config=bcfg,
        service_config=ServiceConfig(inter_job_policy="fair"),
    )
    clients = {}

    def running(name, app):
        def main(client):
            clients[name] = client
            for job in app(client):  # the whole DAG first, so ids are contiguous
                job()
        return main

    with service:
        service.submit(running("ladder", _ladder), tenant="a", arrival_time=0.0)
        service.submit(running("tally", _tally), tenant="b", arrival_time=0.001)
        handles = service.run()
        for handle in handles:
            handle.result()
        report = handles[0].report()
        ended = {"ladder": handles[0].latency, "tally": 0.001 + handles[1].latency}
        together = {
            name: _decisions(report, client, until=ended[name])
            for name, client in clients.items()
        }
        leftovers = _decisions(report, clients["ladder"])[1][len(together["ladder"][1]):]
        interleaved = [r.app_seq for r in service.job_records]

    assert sorted(set(interleaved)) == [0, 1] and interleaved != sorted(interleaved), (
        "the two applications' jobs must actually interleave"
    )
    for name, app in (("ladder", _ladder), ("tally", _tally)):
        alone = _alone(app)
        assert any(d[0] == "admit" for d in alone[0]), f"{name} must cache something"
        assert together[name] == alone, name
    assert together["ladder"][1], "ladder's dead rungs must get auto-unpersisted"
    # Alone, what an application's induction still expects to reuse outlives
    # it; in the service its stream closes, and the next stage end frees it.
    assert ended["ladder"] < ended["tally"]
    # ladder's base, and its last rung: role offsets predict a read one job
    # past the end, which only the stream closing retracts
    assert {rdd for rdd, _split in leftovers} == {0, 5}, "ladder's leftovers, once it is gone"
