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
from conftest import reference_select

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    ElasticConfig,
    GiB,
    MiB,
    ObsConfig,
    ServiceConfig,
)
from repro.core.decision_cache import DecisionCostCache, VictimIndex
from repro.core.profiler import run_dependency_extraction
from repro.core.udl import BlazeCacheManager
from repro.elastic import ScaleSchedule, ScaleSpec
from repro.experiments.runner import run_experiment
from repro.faults import FaultSchedule, FaultSpec
from repro.service import JobService
from repro.systems.presets import SYSTEMS, make_system
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
           obs: bool = False, columnar: bool = True,
           workload_overrides: dict | None = None,
           require_evictions: bool = True,
           min_kernel_partitions: int = 0,
           sharded: bool = False,
           scale_schedule: ScaleSchedule | None = None,
           elastic: bool | None = None) -> str:
    wl = replace_params(
        make_workload(workload, "tiny"),
        num_partitions=24,
        **(workload_overrides or {}),
    )
    if elastic is None:
        elastic = scale_schedule is not None
    tracer = InMemoryTracer()
    result = run_experiment(
        system,
        wl,
        scale="tiny",
        seed=SEED,
        cluster_config=_pressure_cluster(),
        blaze_config=BlazeConfig(
            fault_injection=schedule is not None,
            obs=ObsConfig(enabled=obs),
            columnar_backend=columnar,
            sharded_engine=sharded, num_shards=2,
            elastic=ElasticConfig(enabled=elastic),
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
    if scale_schedule is not None and elastic:
        assert result.report.elastic_counters["scale_events"] > 0
    return to_jsonl(tracer.events)


# ----------------------------------------------------------------------
# Online differential oracle for the decision layer
# ----------------------------------------------------------------------
def _fresh_order_key(manager: BlazeCacheManager):
    """The variant's victim ordering from fresh-memo ``CostModel`` calls."""
    cfg, model, memo = manager.config, manager.cost_model, {}
    if not cfg.cost_aware_enabled:
        return lambda b: b.last_access
    if not cfg.admission_enabled:
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
            cost_d = self.cost_model.cost_d(term.rdd_id, term.split, {})
            cost_r = self.cost_model.cost_r(
                term.rdd_id, term.split, self._future_state_of, {}
            )
            assert (term.cost_d, term.cost_r) == (cost_d, cost_r)
            assert term.potential_cost == min(cost_d, cost_r)
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


@pytest.mark.parametrize("system", ["blaze", "autocache", "costaware"])
def test_decisions_match_fresh_derivation(system):
    with decision_oracle() as checks:
        checked = _trace(system, obs=True)
    assert checks["selections"] > 0
    if system != "autocache":
        assert checks["audited_costs"] > 0
    if system == "blaze":
        assert checks["eviction_states"] > 0
    assert checked == _trace(system), "the oracle is a pure reader"


def _quota_service_run() -> tuple[str, Counter]:
    """Three tenants' PageRanks interleaved on one quota-capped fleet.

    Returns the trace and how many audited victims fell in each fairness
    tier; memory and quotas are sized so that executors hold several
    tenants' blocks at once and all three tiers get evicted from.
    """
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    bcfg = BlazeConfig(obs=ObsConfig(enabled=True))
    tracer = InMemoryTracer()
    profile = run_dependency_extraction(
        wl.profiling_run_fn(bcfg.profiling_sample_fraction), bcfg,
        seed=SEED, tracer=tracer,
    )
    service = JobService(
        ClusterConfig(
            num_executors=2, slots_per_executor=2,
            # Blaze counts references over all three applications' streams,
            # so it holds (and spills) more of each; 32 MiB is where tier 2
            # still gets evicted from (48 MiB did, while each was scored alone)
            memory_store_bytes=32 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        make_system("blaze").build(profile=profile, blaze_config=bcfg),
        seed=SEED, tracer=tracer, blaze_config=bcfg,
        service_config=ServiceConfig(
            tenant_quotas={"a": 40 * MiB, "b": 10 * MiB, "c": 80 * MiB},
            dedup_enabled=False, inter_job_policy="fair",
        ),
    )
    with service:
        for i, tenant in enumerate("abc"):
            service.submit(
                lambda client: wl.run(client).final_value,
                tenant=tenant, arrival_time=0.01 * i, seed=SEED + i,
            )
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


# The columnar backend (PR 8) stores analyzable partitions as numpy record
# batches and runs fused chains through vectorized kernels, yet every
# preset must emit the byte-exact trace with ``columnar_backend`` on vs.
# off: encode happens after sizing-relevant weights are fixed, kernels
# replay the iterator pipeline's charges with identical float math, and
# tier movement only transcodes codecs.
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_columnar_trace_is_byte_identical(system):
    assert _trace(system, columnar=False) == _trace(system, columnar=True)


# PageRank's adjacency partitions exercise fallback; the chain workload's
# (int, float) pairs exercise the kernels themselves, so cover both.  The
# inflated record bytes overflow the squeezed store, driving the cached
# source through reject/admit-to-disk/disk-read transitions — i.e. the
# spill-codec path — while the action results pin value identity; the
# non-vacuity condition here is kernel engagement on the columnar side.
@pytest.mark.parametrize("system", ["blaze", "costaware", "spark_mem_disk"])
def test_columnar_chain_trace_is_byte_identical(system):
    overrides = {"record_bytes": 0.3 * MiB}
    assert _trace(
        system, workload="chain", columnar=False,
        workload_overrides=overrides, require_evictions=False,
    ) == _trace(
        system, workload="chain", columnar=True,
        workload_overrides=overrides, require_evictions=False,
        min_kernel_partitions=1,
    )


@pytest.mark.parametrize("system", ["blaze", "spark_mem_disk"])
def test_columnar_faulted_trace_is_byte_identical(system):
    schedule = _fault_schedule()
    assert _trace(system, schedule=schedule, columnar=False) == _trace(
        system, schedule=schedule, columnar=True
    )


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


# Kill-switch discipline: a scale schedule handed to a run with
# ``BlazeConfig.elastic`` down must be invisible in the JSONL.
@pytest.mark.parametrize("system", ["blaze", "spark_mem_disk"])
def test_scale_schedule_without_flag_is_byte_identical(system):
    assert _trace(system) == _trace(
        system, scale_schedule=_scale_schedule(), elastic=False
    )


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
            blaze_config=BlazeConfig(elastic=ElasticConfig(enabled=True)),
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
