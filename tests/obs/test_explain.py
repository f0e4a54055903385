"""Acceptance: explain() surfaces what the decision layer audited.

The audited cost terms are read through ``DecisionCostCache.explain_costs``;
that each equals a fresh cost-model compute on the same snapshot is checked
online by ``tests/integration/test_trace_identity.py``'s decision oracle.
"""

from __future__ import annotations

from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ObsConfig
from repro.experiments.runner import run_experiment
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
