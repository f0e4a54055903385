"""Behavioral tests for the ``repro.faults`` layer.

Covers the schedule format, the switch (a passed schedule alone arms the
injector, no schedule builds none), each fault kind's recovery path,
bounded retries, and the fused data plane's was-cached guard surviving
mid-chain loss.
"""

from __future__ import annotations

import pytest

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import BlazeConfig
from repro.errors import ConfigError, FaultError
from repro.faults import FAULT_KINDS, FaultSchedule, FaultSpec
from repro.systems.presets import make_system
from repro.tracing import InMemoryTracer

from conftest import make_cluster_config
from repro.dataflow.context import BlazeContext


def _fault_ctx(
    schedule: FaultSchedule | None,
    *,
    system: str = "spark",
    tracer: InMemoryTracer | None = None,
    seed: int = 0,
    memory_mb: float = 512,
    **blaze_kwargs,
) -> BlazeContext:
    bcfg = BlazeConfig(**blaze_kwargs)
    if system == "spark":
        manager = SparkCacheManager(StorageMode.MEM_AND_DISK, "lru")
    else:
        manager = make_system(system).build(profile=None, blaze_config=bcfg)
    return BlazeContext(
        make_cluster_config(memory_mb=memory_mb),
        manager,
        seed=seed,
        tracer=tracer,
        blaze_config=bcfg,
        fault_schedule=schedule,
    )


def _iterative_job(ctx: BlazeContext, rounds: int = 3):
    """A cached shuffle workload: every round reuses the cached reduction."""
    from repro.config import MiB
    from repro.dataflow.operators import OpCost, SizeModel

    pairs = ctx.parallelize(
        [(i % 4, i) for i in range(32)], 4,
        op_cost=OpCost(per_element_out=2e-3),
        size_model=SizeModel(bytes_per_element=0.5 * MiB),
    )
    summed = pairs.reduce_by_key(lambda a, b: a + b).named("summed")
    summed.cache()
    out = []
    for r in range(rounds):
        scaled = summed.map_values(lambda v, k=r + 1: v * k)
        out.append(sorted(scaled.collect()))
    return out


def _clean_makespan() -> float:
    """Virtual makespan of the fault-free 4-round job (memoized)."""
    global _MAKESPAN
    if _MAKESPAN is None:
        ctx = _fault_ctx(None)
        _iterative_job(ctx, rounds=4)
        _MAKESPAN = ctx.now
        ctx.stop()
    return _MAKESPAN


_MAKESPAN: float | None = None


# ----------------------------------------------------------------------
# Schedule format
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec(1.0, "meteor_strike")
    with pytest.raises(ConfigError):
        FaultSpec(-1.0, "block_loss")
    with pytest.raises(ConfigError):
        FaultSpec(1.0, "executor_crash")  # needs executor_id
    with pytest.raises(ConfigError):
        FaultSpec(1.0, "straggler", executor_id=0, factor=0.5, window_seconds=1.0)
    with pytest.raises(ConfigError):
        FaultSpec(1.0, "straggler", executor_id=0)  # needs a window
    with pytest.raises(ConfigError):
        FaultSpec(1.0, "block_loss", rdd_id=3)  # split missing


def test_seeded_schedule_is_deterministic_and_ordered():
    kwargs = dict(horizon_seconds=10.0, num_executors=4, num_faults=6)
    a = FaultSchedule.seeded(42, **kwargs)
    b = FaultSchedule.seeded(42, **kwargs)
    assert a == b
    assert len(a) == 6
    times = [s.at for s in a.in_order()]
    assert times == sorted(times)
    assert all(0.0 <= t < 10.0 for t in times)
    assert all(s.kind in FAULT_KINDS for s in a.specs)
    assert FaultSchedule.seeded(43, **kwargs) != a


def test_clamped_to_normalizes_executor_ids():
    sched = FaultSchedule((FaultSpec(1.0, "executor_crash", executor_id=7),))
    clamped = sched.clamped_to(2)
    assert clamped.specs[0].executor_id == 1


# ----------------------------------------------------------------------
# The schedule is the switch
# ----------------------------------------------------------------------
def test_schedule_alone_arms_the_injector():
    """No config field has to agree: a one-crash schedule injects."""
    sched = FaultSchedule((FaultSpec(0.0, "executor_crash", executor_id=0),))
    ctx = BlazeContext(
        make_cluster_config(memory_mb=512),
        SparkCacheManager(StorageMode.MEM_AND_DISK, "lru"),
        fault_schedule=sched,
    )
    assert ctx.fault_injector.max_task_retries == BlazeConfig().fault_max_task_retries
    _iterative_job(ctx)
    assert ctx.report().fault_counters["faults_injected"] > 0
    ctx.stop()


def test_flag_without_schedule_builds_no_injector():
    ctx = _fault_ctx(None)
    assert ctx.fault_injector is None
    ctx.stop()


def test_empty_schedule_is_calibration_only():
    """An empty schedule arms the injector but injects nothing."""
    ctx = _fault_ctx(FaultSchedule())
    assert ctx.fault_injector is not None
    results = _iterative_job(ctx)
    clean = _iterative_job(_fault_ctx(None))
    assert results == clean
    assert ctx.report().fault_counters["faults_injected"] == 0


# ----------------------------------------------------------------------
# Recovery per fault kind
# ----------------------------------------------------------------------
def test_fetch_failure_reattempts_and_resubmits():
    sched = FaultSchedule((FaultSpec(0.0, "fetch_failure", pick=1),))
    ctx = _fault_ctx(sched)
    results = _iterative_job(ctx)
    clean = _iterative_job(_fault_ctx(None))
    assert results == clean
    fc = ctx.report().fault_counters
    assert fc["fetch_failures"] == 1
    assert fc["task_reattempts"] >= 1
    assert fc["stage_resubmits"] >= 1
    assert fc["fault_backoff_seconds"] > 0


def test_executor_crash_loses_and_recovers_blocks():
    # Fire during the cached rounds (job 0 dominates the makespan; the
    # reuse rounds run in the last percent) so blocks are resident.
    sched = FaultSchedule(
        (FaultSpec(0.995 * _clean_makespan(), "executor_crash", executor_id=0),)
    )
    tracer = InMemoryTracer()
    ctx = _fault_ctx(sched, tracer=tracer)
    results = _iterative_job(ctx, rounds=4)
    clean = _iterative_job(_fault_ctx(None))
    assert results[:3] == clean
    fc = ctx.report().fault_counters
    assert fc["executor_crashes"] == 1
    assert fc["blocks_lost"] >= 1
    assert fc["bytes_lost"] > 0
    names = {e.name for e in tracer.events}
    assert "fault.injected" in names
    assert "block.lost" in names
    # the lost cached partitions were recomputed through lineage
    assert ctx.metrics.total.recompute_seconds > 0


def test_block_loss_targets_resident_block():
    # pick-based loss against whatever is resident at fire time
    sched = FaultSchedule(
        (FaultSpec(0.995 * _clean_makespan(), "block_loss", pick=2),)
    )
    ctx = _fault_ctx(sched)
    results = _iterative_job(ctx, rounds=4)
    clean = _iterative_job(_fault_ctx(None), rounds=4)
    assert results == clean
    fc = ctx.report().fault_counters
    assert fc["blocks_lost"] == 1


def test_block_loss_misses_gracefully_when_nothing_resident():
    sched = FaultSchedule((FaultSpec(0.0, "block_loss", rdd_id=999, split=0),))
    ctx = _fault_ctx(sched)
    results = _iterative_job(ctx)
    clean = _iterative_job(_fault_ctx(None))
    assert results == clean
    assert ctx.report().fault_counters["blocks_lost"] == 0


def test_straggler_stretches_makespan_without_changing_results():
    sched = FaultSchedule(
        (FaultSpec(0.0, "straggler", executor_id=0, factor=4.0, window_seconds=1e6),)
    )
    slow = _fault_ctx(sched)
    results = _iterative_job(slow)
    clean_ctx = _fault_ctx(None)
    clean = _iterative_job(clean_ctx)
    assert results == clean
    fc = slow.report().fault_counters
    assert fc["straggler_tasks_slowed"] > 0
    assert fc["fault_straggler_seconds"] > 0
    assert slow.now > clean_ctx.now


def test_retry_exhaustion_raises_fault_error():
    # Enough armed fetch failures to outlast a single allowed retry.
    sched = FaultSchedule(
        tuple(FaultSpec(0.0, "fetch_failure", pick=i) for i in range(6))
    )
    ctx = _fault_ctx(sched, fault_max_task_retries=1)
    with pytest.raises(FaultError):
        _iterative_job(ctx)


def test_crash_mid_task_wastes_attempt_time():
    """A crash strictly inside a running attempt fails it post-hoc."""
    # Fire well after t=0 so some task's window covers it.
    sched = FaultSchedule(
        (FaultSpec(0.37 * _clean_makespan(), "executor_crash", executor_id=0),)
    )
    ctx = _fault_ctx(sched)
    results = _iterative_job(ctx)
    clean = _iterative_job(_fault_ctx(None))
    assert results == clean
    fc = ctx.report().fault_counters
    assert fc["executor_crashes"] == 1
    if fc["task_reattempts"]:
        assert fc["fault_wasted_seconds"] >= 0


# ----------------------------------------------------------------------
# Fused pipelines survive mid-chain loss
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["spark", "blaze_no_profile"])
def test_fused_chain_survives_mid_chain_loss(system, unfused):
    """Losing a cached mid-chain block must not let fusion elide it."""

    def run():
        sched = FaultSchedule()
        ctx = _fault_ctx(sched, system=system)
        base = ctx.parallelize(list(range(40)), 4)
        mid = base.map(lambda x: x * 2).named("mid")
        mid.cache()
        top = mid.map(lambda x: x + 1)
        first = sorted(top.collect())
        # wipe the cached mid-chain partitions through the loss primitive
        injector = ctx.fault_injector
        for executor in ctx.cluster.executors:
            for block in executor.bm.cached_blocks():
                executor.bm.purge_lost(block.block_id)
                injector.cache_manager.on_block_lost(executor, block)
        second = sorted(top.collect())
        third = sorted(top.collect())
        lost = ctx.report().fault_counters["blocks_lost"]
        ctx.stop()
        return first, second, third, lost

    fused = run()
    with unfused():
        reference = run()
    assert fused == reference
    assert fused[0] == fused[1] == fused[2]
    assert fused[3] >= 1
