"""Acceptance: explain() surfaces what the decision layer audited.

The audited cost terms are read through ``DecisionCostCache.explain_costs``;
that each equals a fresh cost-model compute on the same snapshot is checked
online by ``tests/integration/test_trace_identity.py``'s decision oracle.
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
from repro.dataflow.operators import SizeModel
from repro.experiments.runner import run_experiment
from repro.service import JobService
from repro.systems.presets import make_system
from repro.tracing import InMemoryTracer
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

SEED = 3


def _run(system: str):
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    tracer = InMemoryTracer()
    result = run_experiment(
        system,
        wl,
        scale="tiny",
        seed=SEED,
        cluster_config=ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=24 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        blaze_config=BlazeConfig(obs=ObsConfig(enabled=True)),
        tracer=tracer,
    )
    assert result.eviction_count > 0, "config must generate memory pressure"
    return result.report


def test_explain_surfaces_eviction_victims_with_cost_terms():
    report = _run("blaze")
    victims = [
        (cand, entry)
        for entry in report.audit_entries
        for cand in entry.victims
        if entry.kind != "ilp"
    ]
    assert victims, "the eviction-heavy run must displace at least one block"
    cand, entry = victims[0]
    answer = report.explain(cand.rdd_id, cand.split)
    assert answer.found
    assert entry in answer.as_victim
    # Blaze ranks victims by Eq. 2, so the audited candidate carries the
    # full cost triple and its actual destination.
    assert cand.cost_d is not None
    assert cand.cost_r is not None
    assert cand.potential_cost == min(cand.cost_d, cand.cost_r)
    assert cand.chosen_state in ("disk", "gone")
    text = answer.summary()
    assert f"rdd={cand.rdd_id}" in text
    assert "victim" in text


def test_explain_empty_without_obs():
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    result = run_experiment(
        "blaze", wl, scale="tiny", seed=SEED,
        cluster_config=ClusterConfig(
            num_executors=2, slots_per_executor=2,
            memory_store_bytes=24 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
    )
    report = result.report
    assert report.audit_entries == ()
    answer = report.explain(0, 0)
    assert not answer.found
    assert "no audited decision" in answer.summary()


def test_explain_breaks_references_down_by_stream():
    """Two applications on one service: who still references what, and
    "0 references anywhere" as the answer for a partition no admission
    decision ever saw."""
    bcfg = BlazeConfig(obs=ObsConfig(enabled=True))
    service = JobService(
        ClusterConfig(
            num_executors=2, slots_per_executor=2, memory_store_bytes=64 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        make_system("blaze_no_profile").build(blaze_config=bcfg),
        seed=SEED, blaze_config=bcfg, service_config=ServiceConfig(),
    )

    def build(client):
        base = client.source(
            lambda _s, rng: rng.random(8).tolist(), 4,
            size_model=SizeModel(bytes_per_element=MiB), name="base",
        ).cache()
        return base, [base.map(lambda x, i=i: x + i, name=f"step{i}") for i in range(4)]

    with service:
        a, b = service.session("a"), service.session("b")
        (base, a_steps), (_, b_steps) = build(a), build(b)  # dedup: same ids
        for step in a_steps[:3]:
            a.run_job(step, lambda _s, part: len(part))
        b.run_job(b_steps[0], lambda _s, part: len(part))
        report = b.report()

        answer = report.explain(base.rdd_id, 0)
        by_role = {r.role: r for r in answer.references}
        assert set(by_role) == {"current", "parked"}
        assert by_role["current"].stream == "b-session"
        assert by_role["current"].refs == 0, "one job in, b has no pattern yet"
        # a touched base in each of its last three jobs: the recurrent rule
        # projects it on, and that is why the block is still cached
        assert by_role["parked"].stream == "a-session"
        assert by_role["parked"].refs > 0
        assert by_role["parked"].next_job == 3
        assert answer.found and "future references" in answer.summary()
        assert "parked stream 'a-session'" in answer.summary()

        dead = report.explain(a_steps[0].rdd_id, 0)  # computed twice, never offered
        assert not dead.found
        assert "0 future references in any open stream" in dead.summary()
