"""Property tests: fault injection never changes what a run computes.

Randomized DAG programs run against randomized seeded fault schedules and
must converge to the fault-free oracle: identical per-partition results,
identical admitted-block sets, identical eviction sequences (asserted
bit-for-bit under no-pressure configurations, where recovery cannot
legitimately reorder capacity decisions), and byte-identical JSONL traces
across repeats of the same faulted run.

A separate parametrized sweep drives every system preset through one
forced schedule on the registry PageRank workload and checks convergence
plus nonzero fault counters — the acceptance gate of the fault layer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.experiments.runner import run_experiment
from repro.faults import FaultSchedule, FaultSpec
from repro.systems.presets import SYSTEMS, make_system
from repro.tracing import InMemoryTracer, to_jsonl
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("map"), st.integers(min_value=-3, max_value=3)),
        st.tuples(st.just("filter"), st.integers(min_value=2, max_value=5)),
        st.tuples(st.just("reduce"), st.integers(min_value=2, max_value=4)),
        st.tuples(st.just("cache"), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)
_data = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30)
_widths = st.integers(min_value=1, max_value=4)
_seeds = st.integers(min_value=0, max_value=2**16)
_fault_seeds = st.integers(min_value=0, max_value=2**16)
_systems = st.sampled_from(["spark", "blaze_no_profile", "costaware"])


def _manager(system: str, bcfg: BlazeConfig):
    if system == "spark":
        return SparkCacheManager(StorageMode.MEM_AND_DISK, "lru")
    return make_system(system).build(profile=None, blaze_config=bcfg)


def _run_program(system, steps, data, width, seed, schedule):
    """Run the random DAG (two passes) and snapshot every observable.

    ``schedule=None`` is the fault-free oracle.  Memory is generous (no
    pressure) so capacity decisions cannot differ for legitimate reasons:
    any divergence in admissions or evictions is a fault-layer bug.
    """
    bcfg = BlazeConfig()
    tracer = InMemoryTracer()
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=2 * GiB,
            disk=DiskConfig(capacity_bytes=4 * GiB),
        ),
        _manager(system, bcfg),
        seed=seed,
        tracer=tracer,
        blaze_config=bcfg,
        fault_schedule=schedule,
    )
    try:
        rdd = ctx.parallelize(
            data,
            width,
            op_cost=OpCost(per_element_out=1e-3),
            size_model=SizeModel(bytes_per_element=0.02 * MiB),
        )
        for kind, arg in steps:
            if kind == "map":
                rdd = rdd.map(lambda x, c=arg: x + c)
            elif kind == "filter":
                rdd = rdd.filter(lambda x, m=arg: x % m != 0)
            elif kind == "reduce":
                rdd = rdd.map(lambda x, m=arg: (x % m, x)).reduce_by_key(
                    lambda a, b: a + b
                ).map(lambda kv: kv[0] + kv[1])
            else:
                rdd.cache()

        partitions = []
        error = None
        try:
            for _ in range(2):  # second pass reads through caches / recovers
                partitions.append(ctx.run_job(rdd, lambda _s, part: list(part)))
        except Exception as exc:  # engine errors (e.g. zero-size ILP items)
            error = f"{type(exc).__name__}: {exc}"  # must match across modes
        report = ctx.report()
        return {
            "partitions": partitions,
            "error": error,
            "was_cached": set(ctx.driver._was_cached),
            "evictions": report.eviction_count,
            "eviction_timeline": report.eviction_timeline(),
            "trace": to_jsonl(tracer.events),
            "fault_counters": report.fault_counters,
        }
    finally:
        ctx.stop()


@settings(max_examples=25, deadline=None)
@given(
    system=_systems,
    steps=_steps,
    data=_data,
    width=_widths,
    seed=_seeds,
    fault_seed=_fault_seeds,
)
def test_faulted_run_converges_to_fault_free_oracle(
    system, steps, data, width, seed, fault_seed
):
    clean = _run_program(system, steps, data, width, seed, None)
    schedule = FaultSchedule.seeded(
        fault_seed, horizon_seconds=0.5, num_executors=2, num_faults=3
    )
    faulted = _run_program(system, steps, data, width, seed, schedule)
    repeat = _run_program(system, steps, data, width, seed, schedule)

    # Convergence: the results are exactly the fault-free results.
    assert faulted["partitions"] == clean["partitions"]
    assert faulted["error"] == clean["error"]
    # Admitted-block identity: recovery re-admits what the clean run
    # admitted, nothing more (no pressure, so no legitimate divergence).
    assert faulted["was_cached"] == clean["was_cached"]
    # Eviction sequence identity under no pressure.
    assert faulted["evictions"] == clean["evictions"]
    assert faulted["eviction_timeline"] == clean["eviction_timeline"]
    # Determinism: the same seed + schedule replays byte-identically.
    assert repeat["trace"] == faulted["trace"]
    assert repeat["fault_counters"] == faulted["fault_counters"]


# ----------------------------------------------------------------------
# Acceptance sweep: every preset converges under a forced schedule
# ----------------------------------------------------------------------
_CLEAN: dict[str, object] = {}


def _pr_workload():
    return replace_params(make_workload("pr", "tiny"), num_partitions=8)


def _clean_run(system: str):
    if system not in _CLEAN:
        _CLEAN[system] = run_experiment(
            system, _pr_workload(), scale="tiny", seed=1
        )
    return _CLEAN[system]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_preset_converges_under_faults(system):
    clean = _clean_run(system)
    horizon = max(clean.act_seconds, 1e-3)
    schedule = FaultSchedule(
        (
            FaultSpec(0.0, "fetch_failure", pick=1),
            FaultSpec(0.3 * horizon, "executor_crash", executor_id=1),
            FaultSpec(0.6 * horizon, "block_loss", pick=3),
            FaultSpec(
                0.5 * horizon, "straggler", executor_id=0,
                factor=2.0, window_seconds=0.2 * horizon,
            ),
        )
    )
    faulted = run_experiment(
        system,
        _pr_workload(),
        scale="tiny",
        seed=1,
        fault_schedule=schedule,
    )
    assert (
        faulted.workload_result.final_value == clean.workload_result.final_value
    ), f"{system} diverged under faults"
    # Recovery costs virtual time; the clean side injects nothing.
    assert faulted.act_seconds >= clean.act_seconds
    assert clean.report.fault_counters["faults_injected"] == 0
    fc = faulted.report.fault_counters
    assert fc["faults_injected"] == 4
    assert fc["executor_crashes"] == 1
    assert fc["fetch_failures"] == 1
    assert fc["task_reattempts"] >= 1
    assert fc["stage_resubmits"] >= 1
