"""Property tests: elastic fleet changes never change what a run computes.

Randomized DAG programs run against randomized seeded scale schedules and
must converge to the fixed-fleet oracle: identical per-partition results,
identical admitted-block sets, identical eviction sequences (asserted
bit-for-bit under no-pressure configurations, where migration/recovery
cannot legitimately reorder capacity decisions), and byte-identical JSONL
traces across repeats of the same elastic run.

A separate parametrized sweep drives every system preset through one
forced 4-event schedule (scale-up, scale-down, a spot preemption, and a
second scale-up) on the registry PageRank workload and checks convergence
plus nonzero scale counters — the acceptance gate of the elastic layer.
The schedule is the only switch: the sweep passes nothing else.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.elastic import ScaleSchedule, ScaleSpec
from repro.experiments.runner import run_experiment
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
_scale_seeds = st.integers(min_value=0, max_value=2**16)
_systems = st.sampled_from(["spark", "blaze_no_profile", "costaware"])


def _manager(system: str, bcfg: BlazeConfig):
    if system == "spark":
        return SparkCacheManager(StorageMode.MEM_AND_DISK, "lru")
    return make_system(system).build(profile=None, blaze_config=bcfg)


def _run_program(system, steps, data, width, seed, schedule):
    """Run the random DAG (two passes) and snapshot every observable.

    ``schedule=None`` is the fixed-fleet oracle.  Memory is generous (no
    pressure) so capacity decisions cannot differ for legitimate reasons:
    any divergence in admissions or evictions is an elastic-layer bug.
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
        scale_schedule=schedule,
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

        partitions = [
            ctx.run_job(rdd, lambda _s, part: list(part))
            for _ in range(2)  # second pass reads through caches / recovers
        ]
        report = ctx.report()
        return {
            "partitions": partitions,
            "was_cached": set(ctx.driver._was_cached),
            "evictions": report.eviction_count,
            "eviction_timeline": report.eviction_timeline(),
            "trace": to_jsonl(tracer.events),
            "elastic_counters": report.elastic_counters,
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
    scale_seed=_scale_seeds,
)
@example(
    system="blaze_no_profile",
    steps=[("reduce", 2), ("reduce", 2), ("cache", 0)],
    data=[0] * 13,
    width=3,
    seed=0,
    scale_seed=27130,
)
def test_elastic_run_converges_to_fixed_fleet_oracle(
    system, steps, data, width, seed, scale_seed
):
    clean = _run_program(system, steps, data, width, seed, None)
    schedule = ScaleSchedule.seeded(
        scale_seed, horizon_seconds=0.5, num_executors=2, num_events=3
    )
    elastic = _run_program(system, steps, data, width, seed, schedule)
    repeat = _run_program(system, steps, data, width, seed, schedule)

    # Convergence: the results are exactly the fixed-fleet results.
    assert elastic["partitions"] == clean["partitions"]
    # Admitted-block identity: migration relocates and preemption recovery
    # re-admits what the fixed run admitted, nothing more (no pressure, so
    # no legitimate divergence).
    assert elastic["was_cached"] == clean["was_cached"]
    # Eviction sequence identity under no pressure.
    assert elastic["evictions"] == clean["evictions"]
    assert elastic["eviction_timeline"] == clean["eviction_timeline"]
    # Determinism: the same seed + schedule replays byte-identically.
    assert repeat["trace"] == elastic["trace"]
    assert repeat["elastic_counters"] == elastic["elastic_counters"]


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
def test_every_preset_converges_under_elastic_fleet(system):
    clean = _clean_run(system)
    horizon = max(clean.act_seconds, 1e-3)
    schedule = ScaleSchedule(
        (
            ScaleSpec(0.1 * horizon, "scale_up", count=2),
            ScaleSpec(0.3 * horizon, "scale_down", executor_id=1),
            ScaleSpec(0.5 * horizon, "preemption", executor_id=0),
            ScaleSpec(0.7 * horizon, "scale_up", count=1),
        )
    )
    el = run_experiment(
        system,
        _pr_workload(),
        scale="tiny",
        seed=1,
        scale_schedule=schedule,
    )
    assert (
        el.workload_result.final_value == clean.workload_result.final_value
    ), f"{system} diverged on an elastic fleet"
    ec = el.report.elastic_counters
    assert ec["scale_events"] == 4
    assert ec["preemptions"] == 1
    assert ec["scale_ups"] == 2
    assert ec["scale_downs"] >= 1
    assert ec["executors_added"] >= 1
    assert ec["executors_removed"] >= 1
