"""The JSONL trace as oracle, plus an online oracle for the decision layer.

Admission rejections embed the compared float values (``incoming_value``
/ ``displaced_value``), eviction order shows up as cache events, and
spill-vs-discard choices as distinct event names — so byte-equality of
same-seed traces proves two runs decided identically.  The workload is a
pressure-heavy PageRank (partitions inflated well past the memory store)
so the eviction/admission machinery actually runs hot.

The decision layer itself has one implementation (epoch cost cache +
victim index), so it is checked *online* instead of against a twin: every
victim selection, audited cost term and eviction-state choice of a run is
compared, at the moment it is made, with a from-scratch derivation over
the same snapshot (``decision_oracle``).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from conftest import quota_service, reference_select

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    GiB,
    MiB,
    ObsConfig,
)
from repro.core.decision_cache import DecisionCostCache, VictimIndex
from repro.core.udl import BlazeCacheManager
from repro.elastic import ScaleSchedule, ScaleSpec
from repro.experiments.runner import run_experiment
from repro.faults import FaultSchedule, FaultSpec
from repro.systems.presets import SYSTEMS
from repro.tracing import InMemoryTracer, to_jsonl
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

SEED = 3


def _pressure_cluster() -> ClusterConfig:
    """Tiny cluster squeezed so the working set overflows memory."""
    return ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=24 * MiB,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )


def _trace(system: str,
           workload: str = "pr", schedule: FaultSchedule | None = None,
           obs: bool = False,
           workload_overrides: dict | None = None,
           require_evictions: bool = True,
           min_kernel_partitions: int = 0,
           sharded: bool = False,
           scale_schedule: ScaleSchedule | None = None) -> str:
    wl = replace_params(
        make_workload(workload, "tiny"),
        num_partitions=24,
        **(workload_overrides or {}),
    )
    tracer = InMemoryTracer()
    result = run_experiment(
        system,
        wl,
        scale="tiny",
        seed=SEED,
        cluster_config=_pressure_cluster(),
        blaze_config=BlazeConfig(
            obs=ObsConfig(enabled=obs),
            sharded_engine=sharded, num_shards=2,
        ),
        tracer=tracer,
        fault_schedule=schedule,
        scale_schedule=scale_schedule,
    )
    if require_evictions:
        assert result.eviction_count > 0, "config must generate memory pressure"
    kernel_partitions = result.report.decision_counters["kernel_partitions"]
    assert kernel_partitions >= min_kernel_partitions, "kernels must engage"
    if schedule is not None:
        assert result.report.fault_counters["faults_injected"] > 0
    if scale_schedule is not None:
        assert result.report.elastic_counters["scale_events"] > 0
    return to_jsonl(tracer.events)


# ----------------------------------------------------------------------
# Online differential oracle for the decision layer
# ----------------------------------------------------------------------
def _fresh_order_key(manager: BlazeCacheManager):
    """The rung's victim ordering from fresh-memo ``CostModel`` calls."""
    rung, model, memo = manager.config.rung, manager.cost_model, {}
    if rung == "autocache":
        return lambda b: b.last_access
    if rung == "costaware":
        return lambda b: model.cost_d(b.rdd_id, b.split, memo)

    def density(b):
        refs = manager.lineage.future_refs(b.rdd_id, inclusive=True)
        if refs <= 0:
            return 0.0
        cost = model.potential_cost(b.rdd_id, b.split, manager._future_state_of, memo)
        return cost * refs / b.size_bytes

    return density


@contextmanager
def decision_oracle():
    """Check every cached decision read against a from-scratch derivation.

    Yields a counter of the checks made, so callers can assert the run
    exercised each seam.
    """
    checks: Counter = Counter()
    admitting: list = []  # (manager, block manager) of the running _admit
    admit = BlazeCacheManager._admit
    audit_candidates = BlazeCacheManager._audit_candidates
    preferred_state = DecisionCostCache.preferred_state

    def checked_admit(self, executor, *args, **kwargs):
        admitting.append((self, executor.bm))
        try:
            return admit(self, executor, *args, **kwargs)
        finally:
            admitting.pop()

    def checked_select(select):
        def wrapper(index, needed_bytes, incoming_rdd_id, *quota_terms):
            manager, bm = admitting[-1]
            victims, scanned = select(index, needed_bytes, incoming_rdd_id, *quota_terms)
            want = reference_select(
                bm.memory.blocks(), _fresh_order_key(manager),
                needed_bytes, incoming_rdd_id, *quota_terms,
            )
            ids = None if victims is None else [v.block_id for v in victims]
            assert ids == (None if want is None else [v.block_id for v in want])
            checks["tiered_selections" if quota_terms else "selections"] += 1
            if quota_terms and victims and len({quota_terms[0](v) for v in victims}) > 1:
                checks["selections_across_tiers"] += 1
            return victims, scanned
        return wrapper

    def checked_audit_candidates(self, victims, tier_of=None):
        terms = audit_candidates(self, victims, tier_of)
        for term in terms:
            if term.cost_d is None:
                continue
            model, state_fn = self.cost_model, self._future_state_of
            cost_d = model.cost_d(term.rdd_id, term.split, {})
            cost_r = model.cost_r(term.rdd_id, term.split, state_fn, {})
            assert (term.cost_d, term.cost_r) == (cost_d, cost_r)
            # with the remote tier bound, remote read-back joins the minimum
            assert term.potential_cost == model.potential_cost(
                term.rdd_id, term.split, state_fn, {}
            )
            checks["audited_costs"] += 1
        return terms

    def checked_preferred_state(self, rdd_id, split):
        state = preferred_state(self, rdd_id, split)
        assert state == self.cost_model.preferred_eviction_state(
            rdd_id, split, self.state_fn, {}
        )
        checks["eviction_states"] += 1
        return state

    with (
        mock.patch.object(BlazeCacheManager, "_admit", checked_admit),
        mock.patch.object(VictimIndex, "select", checked_select(VictimIndex.select)),
        mock.patch.object(
            VictimIndex, "select_tiered", checked_select(VictimIndex.select_tiered)
        ),
        mock.patch.object(
            BlazeCacheManager, "_audit_candidates", checked_audit_candidates
        ),
        mock.patch.object(DecisionCostCache, "preferred_state", checked_preferred_state),
    ):
        yield checks


# Block loss and fleet changes (with the remote tier) end decision epochs
# outside the admission path, so Blaze is also checked under both.
@pytest.mark.parametrize(
    "system, scenario",
    [
        pytest.param("blaze", None, id="blaze"),
        pytest.param("autocache", None, id="autocache"),
        pytest.param("costaware", None, id="costaware"),
        pytest.param("blaze", "fault", id="blaze-fault"),
        pytest.param("blaze", "scale", id="blaze-scale"),
    ],
)
def test_decisions_match_fresh_derivation(system, scenario):
    def run(obs: bool) -> str:
        return _trace(
            system, obs=obs,
            schedule=_fault_schedule() if scenario == "fault" else None,
            scale_schedule=_scale_schedule() if scenario == "scale" else None,
        )

    with decision_oracle() as checks:
        checked = run(obs=True)
    assert checks["selections"] > 0
    if system != "autocache":
        assert checks["audited_costs"] > 0
    if system == "blaze":
        assert checks["eviction_states"] > 0
    assert checked == run(obs=False), "the oracle is a pure reader"


def _quota_service_run() -> tuple[str, Counter]:
    """Blaze on the 3-tenant quota service (``conftest.quota_service``).

    Returns the trace and how many audited victims fell in each fairness
    tier.
    """
    tracer = InMemoryTracer()
    with quota_service("blaze", tracer, seed=SEED) as service:
        handles = service.run()
        for handle in handles:
            handle.result()
        tiers = Counter(
            victim.tier
            for entry in handles[0].report().audit_entries if entry.kind != "ilp"
            for victim in entry.victims
        )
    return to_jsonl(tracer.events), tiers


def test_quota_service_decisions_match_fresh_derivation():
    with decision_oracle() as checks:
        checked, tiers = _quota_service_run()
    assert checks["tiered_selections"] > 0 and checks["audited_costs"] > 0
    assert checks["selections_across_tiers"] > 0, "tier order must matter"
    assert set(tiers) == {0, 1, 2}, "every fairness tier must be evicted from"
    assert checked == _quota_service_run()[0]


def test_same_seed_runs_are_deterministic():
    assert _trace("blaze") == _trace("blaze")


# The fused data plane (PR 4) changes nothing the decision layers see:
# every preset family must produce the byte-exact trace whether narrow
# chains fuse or take the operator-by-operator fallback (the ``unfused``
# fixture) under memory pressure.
@pytest.mark.parametrize(
    "system",
    [
        "blaze",
        "costaware",
        "spark_mem_disk",
        "spark_lrc",
        "spark_lecar",
        "spark_gdwheel",
    ],
)
def test_fused_trace_is_byte_identical(system, unfused):
    with unfused():
        reference = _trace(system)
    assert reference == _trace(system)


# Determinism extends to faulted runs (PR 5): the same seed plus the same
# fault schedule must replay the pressure workload byte-identically —
# injections, reattempts, stage resubmissions, recovery samples and all —
# across presets and across the fused/unfused engines.
def _fault_schedule() -> FaultSchedule:
    return FaultSchedule(
        (
            FaultSpec(0.0, "fetch_failure", pick=2),
            FaultSpec(0.2, "executor_crash", executor_id=1),
            FaultSpec(0.5, "block_loss", pick=5),
            FaultSpec(0.3, "straggler", executor_id=0, factor=2.5,
                      window_seconds=0.4),
        )
    )


@pytest.mark.parametrize("system", ["blaze", "costaware", "spark_mem_disk", "spark_lrc"])
@pytest.mark.parametrize("fused", [False, True])
def test_faulted_trace_is_deterministic_across_repeats(system, fused, unfused):
    with nullcontext() if fused else unfused():
        first = _trace(system, schedule=_fault_schedule())
        second = _trace(system, schedule=_fault_schedule())
    assert first == second


# The observability layer (PR 7) is a pure reader: the decision audit
# log, the occupancy sampler, and the explainability surfaces may never
# perturb a decision or the clock.  Every preset must emit the byte-exact
# trace with ``obs.enabled`` on vs. off under the same pressure workload.
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_obs_trace_is_byte_identical(system):
    assert _trace(system, obs=False) == _trace(system, obs=True)


# The columnar plane stores analyzable partitions as numpy record batches
# and runs fused chains through vectorized kernels, yet every preset must
# emit the byte-exact trace it emits under the ``list_plane`` fixture,
# where no batch ever exists: sizes are declared, never measured, kernels
# replay the iterator pipeline's charges with identical float math, and
# tier movement only transcodes codecs.
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_columnar_trace_is_byte_identical(system, list_plane):
    with list_plane():
        oracle = _trace(system)
    assert oracle == _trace(system)


# PageRank's adjacency partitions exercise fallback; the chain workload's
# (int, float) pairs exercise the kernels themselves, so cover both.  The
# inflated record bytes overflow the squeezed store, driving the cached
# source through reject/admit-to-disk/disk-read transitions — i.e. the
# spill-codec path — while the action results pin value identity; the
# non-vacuity condition here is kernel engagement on the columnar side.
@pytest.mark.parametrize("system", ["blaze", "costaware", "spark_mem_disk"])
def test_columnar_chain_trace_is_byte_identical(system, list_plane):
    overrides = {"record_bytes": 0.3 * MiB}
    with list_plane():
        oracle = _trace(
            system, workload="chain",
            workload_overrides=overrides, require_evictions=False,
        )
    assert oracle == _trace(
        system, workload="chain",
        workload_overrides=overrides, require_evictions=False,
        min_kernel_partitions=1,
    )


@pytest.mark.parametrize("system", ["blaze", "spark_mem_disk"])
def test_columnar_faulted_trace_is_byte_identical(system, list_plane):
    schedule = _fault_schedule()
    with list_plane():
        oracle = _trace(system, schedule=schedule)
    assert oracle == _trace(system, schedule=schedule)


# The sharded engine (PR 9) fans the data plane out across shard workers
# but keeps the clock, the cache-decision path, and the trace on the
# coordinator — so the kill switch must be invisible in the JSONL: every
# preset, fused and unfused, faulted or not, emits the byte-exact trace
# with ``sharded_engine`` on (LocalShardTransport) vs. off under the same
# memory-pressure workload.
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_sharded_trace_is_byte_identical(system):
    assert _trace(system, sharded=False) == _trace(system, sharded=True)


@pytest.mark.parametrize("system", ["blaze", "costaware", "spark_mem_disk"])
def test_sharded_unfused_trace_is_byte_identical(system, unfused):
    with unfused():
        assert _trace(system, sharded=False) == _trace(system, sharded=True)


@pytest.mark.parametrize("system", ["blaze", "costaware", "spark_mem_disk", "spark_lrc"])
def test_sharded_faulted_trace_is_byte_identical(system):
    assert _trace(system, schedule=_fault_schedule(), sharded=False) == _trace(
        system, schedule=_fault_schedule(), sharded=True
    )


@pytest.mark.parametrize("system", ["blaze", "spark_mem_disk"])
def test_sharded_chain_trace_is_byte_identical(system):
    overrides = {"record_bytes": 0.3 * MiB}
    assert _trace(
        system, workload="chain", workload_overrides=overrides,
        require_evictions=False, sharded=False,
    ) == _trace(
        system, workload="chain", workload_overrides=overrides,
        require_evictions=False, sharded=True,
    )


# Elastic fleets and the remote-memory tier (PR 10) fire scale events at
# stage boundaries on the virtual clock, so the same seed + the same
# scale schedule must replay byte-identically — fleet.scale events,
# migrations, remote demotions/reads, recoveries and all — including
# stacked with fault injection and the sharded engine.
def _scale_schedule() -> ScaleSchedule:
    return ScaleSchedule(
        (
            ScaleSpec(0.1, "scale_up", count=2),
            ScaleSpec(0.4, "scale_down", executor_id=1),
            ScaleSpec(0.8, "preemption", executor_id=0),
            ScaleSpec(1.2, "scale_up", count=1),
        )
    )


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_elastic_trace_is_deterministic_across_repeats(system):
    first = _trace(system, scale_schedule=_scale_schedule())
    second = _trace(system, scale_schedule=_scale_schedule())
    assert first == second


@pytest.mark.parametrize("system", ["blaze", "costaware", "spark_mem_disk", "spark_lrc"])
def test_elastic_faulted_trace_is_deterministic_across_repeats(system):
    first = _trace(
        system, schedule=_fault_schedule(), scale_schedule=_scale_schedule()
    )
    second = _trace(
        system, schedule=_fault_schedule(), scale_schedule=_scale_schedule()
    )
    assert first == second


@pytest.mark.parametrize("system", ["blaze", "spark_mem_disk"])
def test_elastic_sharded_trace_is_deterministic_across_repeats(system):
    first = _trace(system, sharded=True, scale_schedule=_scale_schedule())
    second = _trace(system, sharded=True, scale_schedule=_scale_schedule())
    assert first == second


@pytest.mark.parametrize("system", ["blaze"])
def test_elastic_faulted_sharded_trace_is_deterministic(system):
    kwargs = dict(
        schedule=_fault_schedule(), sharded=True,
        scale_schedule=_scale_schedule(),
    )
    assert _trace(system, **kwargs) == _trace(system, **kwargs)


# A remote-tier read is a cache hit like any other: the trace replay and
# the dashboard count the hits the driver's counters count.
def test_traced_hits_match_the_counters_under_a_scale_schedule():
    from repro.obs.dashboard import render_dashboard_html

    tracer = InMemoryTracer()
    report = run_experiment(
        "blaze",
        replace_params(make_workload("pr", "tiny"), num_partitions=24),
        scale="tiny", seed=SEED, cluster_config=_pressure_cluster(),
        tracer=tracer, scale_schedule=_scale_schedule(),
    ).report
    hits = report.access_counters["cache_hits"]
    assert any(e.name == "cache.hit_remote" for e in tracer.events)
    last = report.hit_miss_series()[-1]
    assert (last.hits, last.misses) == (hits, report.access_counters["cache_misses"])
    html = render_dashboard_html(tracer.events)
    assert f"<td>cache hits</td><td>{hits}</td>" in html


# Multi-tenant service runs on an elastic fleet replay deterministically
# too: two tenants, interleaved jobs, the forced schedule, repeated twice.
def test_elastic_service_trace_is_deterministic_across_repeats():
    from repro.caching.manager import SparkCacheManager
    from repro.caching.storage_level import StorageMode
    from repro.dataflow.operators import SizeModel
    from repro.service import JobService

    # The service jobs are short on the virtual clock, so the schedule
    # fires everything at the first stage boundaries.
    schedule = ScaleSchedule(
        (
            ScaleSpec(0.0, "scale_up", count=2),
            ScaleSpec(0.0, "scale_down", executor_id=1),
            ScaleSpec(1e-6, "preemption", executor_id=0),
            ScaleSpec(2e-6, "scale_up", count=1),
        )
    )

    def run_once() -> str:
        tracer = InMemoryTracer()
        service = JobService(
            ClusterConfig(
                num_executors=2, slots_per_executor=2,
                memory_store_bytes=64 * MiB,
                disk=DiskConfig(capacity_bytes=5 * GiB),
            ),
            SparkCacheManager(StorageMode.MEM_AND_DISK, "lru"),
            seed=SEED,
            tracer=tracer,
            scale_schedule=schedule,
        )
        try:
            results = []
            for tenant in ("a", "b"):
                client = service.session(tenant=tenant)
                data = client.parallelize(
                    range(64), 4,
                    size_model=SizeModel(bytes_per_element=0.25 * MiB),
                )
                squared = data.map(lambda x: x * x)
                squared.cache()
                for _ in range(2):
                    results.append(
                        sum(client.run_job(squared, lambda _s, p: sum(p)))
                    )
            assert service.metrics.scale_events > 0
            return to_jsonl(tracer.events), results
        finally:
            service.shutdown()

    first_trace, first_results = run_once()
    second_trace, second_results = run_once()
    assert first_trace == second_trace
    assert first_results == second_results
