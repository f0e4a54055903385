"""Recovery-cost calibration: Eq. 3 / Eq. 4 predictions vs measured time.

With the fault layer armed (even by an *empty* schedule — calibration-only
mode), every recovery the engine performs is sampled: the cache manager's
predicted cost is recorded next to the virtual seconds the recovery
actually charged.  These tests pin the model's accuracy per scenario:

- memory-hit lineage: a lost partition whose parent is memory-resident
  recomputes just its own operator — prediction must be exact;
- disk read-back: Eq. 3 prices exactly what ``charge_disk_read`` charges,
  so observed-size partitions must calibrate to ~zero error;
- deep lineage: a lost partition over a long non-cached narrow chain
  recomputes the whole chain; Eq. 4's worst-parent recursion equals the
  sum on a linear chain, so the error stays within a small tolerance.
"""

from __future__ import annotations

from repro.config import BlazeConfig, MiB
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.faults import FaultSchedule

from conftest import AnnotatedBlazeCacheManager, make_cluster_config

#: declared calibration tolerances (relative error) per scenario
EXACT_TOL = 1e-9
CHAIN_TOL = 0.05


def _blaze_ctx(memory_mb: float = 512) -> BlazeContext:
    # Annotation-driven candidates and no ILP keep the scenarios exactly
    # as constructed (no auto-caching of intermediates, no migrations).
    bcfg = BlazeConfig(ilp_enabled=False)
    return BlazeContext(
        make_cluster_config(memory_mb=memory_mb),
        AnnotatedBlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
        fault_schedule=FaultSchedule(),  # calibration-only: nothing injected
    )


def _lose_all_cached(ctx: BlazeContext, rdd_id: int) -> int:
    """Purge every cached partition of ``rdd_id`` via the loss primitive."""
    lost = 0
    for executor in ctx.cluster.executors:
        for block in executor.bm.cached_blocks():
            if block.rdd_id == rdd_id:
                executor.bm.purge_lost(block.block_id)
                ctx.cache_manager.on_block_lost(executor, block)
                lost += 1
    return lost


def _samples(ctx: BlazeContext, state: str):
    return [s for s in ctx.metrics.recovery_samples if s.state == state]


def test_memory_hit_lineage_recovery_is_exact():
    """Lost partition, memory-resident parent: predicted == one operator."""
    ctx = _blaze_ctx()
    base = ctx.parallelize(
        list(range(40)), 4,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.01 * MiB),
    )
    base.cache()
    top = base.map(lambda x: x + 1).named("top")
    top.cache()
    expected = sorted(top.collect())
    assert _lose_all_cached(ctx, top.rdd_id) == 4

    assert sorted(top.collect()) == expected
    gone = _samples(ctx, "gone")
    assert len(gone) == 4
    for sample in gone:
        assert sample.measured_seconds > 0
        assert sample.relative_error <= EXACT_TOL, sample


def test_disk_readback_calibrates_to_charged_read():
    """Eq. 3 must price exactly what the disk read-back charges."""
    from repro.metrics.collector import TaskMetrics

    ctx = _blaze_ctx()
    data = ctx.parallelize(
        list(range(64)), 4,
        op_cost=OpCost(per_element_out=5e-2),
        size_model=SizeModel(bytes_per_element=0.25 * MiB),
    )
    data.cache()
    expected = sorted(data.collect())
    # Demote every cached partition through the engine's spill primitive
    # (policy-independent): the next access is then a charged disk read.
    for executor in ctx.cluster.executors:
        for block in list(executor.bm.memory.blocks()):
            executor.bm.spill_to_disk(block.block_id, TaskMetrics())
    assert any(
        len(executor.bm.disk) for executor in ctx.cluster.executors
    ), "scenario must place blocks on disk"

    assert sorted(data.collect()) == expected
    disk = _samples(ctx, "disk")
    assert len(disk) >= 4
    for sample in disk:
        assert sample.measured_seconds > 0
        assert sample.relative_error <= EXACT_TOL, sample


def test_deep_lineage_recovery_within_declared_tolerance():
    """A lost partition over a 6-op narrow chain recomputes the chain."""
    ctx = _blaze_ctx()
    rdd = ctx.parallelize(
        list(range(40)), 4,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.01 * MiB),
    )
    for i in range(5):  # uncached intermediates: recovery walks them all
        rdd = rdd.map(
            lambda x, c=i: x + c, op_cost=OpCost(per_element_out=1e-3)
        )
    rdd = rdd.named("deep")
    rdd.cache()
    expected = sorted(rdd.collect())
    assert _lose_all_cached(ctx, rdd.rdd_id) == 4

    assert sorted(rdd.collect()) == expected
    gone = _samples(ctx, "gone")
    assert len(gone) == 4
    for sample in gone:
        assert sample.measured_seconds > 0
        assert sample.relative_error <= CHAIN_TOL, sample
    # the chain recompute really is deep: each measured recovery covers
    # six operators, i.e. is well above a single edge's compute time
    # (10 elements per partition at 1e-3 s each)
    single_edge = 10 * 1e-3
    assert all(s.measured_seconds > 3 * single_edge for s in gone)


# ----------------------------------------------------------------------
# Remote-memory tier (``repro.elastic``): the tier's read-back and its
# place in Eq. 4's parent recursion calibrate like the disk tier does.
# ----------------------------------------------------------------------
def _elastic_blaze_ctx(memory_mb: float = 512) -> BlazeContext:
    from repro.elastic import ScaleSchedule

    bcfg = BlazeConfig(ilp_enabled=False)
    return BlazeContext(
        make_cluster_config(memory_mb=memory_mb),
        AnnotatedBlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
        fault_schedule=FaultSchedule(),  # calibration-only: nothing injected
        scale_schedule=ScaleSchedule(),  # a fixed fleet with the pool
    )


def _demote_all_cached(ctx: BlazeContext, rdd_id: int) -> int:
    """Push every memory-resident partition of ``rdd_id`` to the remote tier."""
    from repro.metrics.collector import TaskMetrics

    moved = 0
    for executor in ctx.cluster.executors:
        for block in list(executor.bm.memory.blocks()):
            if block.rdd_id == rdd_id:
                assert executor.bm.demote_to_remote(block.block_id, TaskMetrics())
                moved += 1
    return moved


def test_remote_readback_calibrates_to_charged_transfer():
    """The remote model must price exactly what ``read_from_remote`` charges."""
    ctx = _elastic_blaze_ctx()
    data = ctx.parallelize(
        list(range(64)), 4,
        op_cost=OpCost(per_element_out=5e-2),
        size_model=SizeModel(bytes_per_element=0.25 * MiB),
    )
    data.cache()
    expected = sorted(data.collect())
    assert _demote_all_cached(ctx, data.rdd_id) == 4

    assert sorted(data.collect()) == expected
    remote = _samples(ctx, "remote")
    assert len(remote) >= 4
    for sample in remote:
        assert sample.measured_seconds > 0
        assert sample.relative_error <= EXACT_TOL, sample


def test_remote_parent_recovery_is_exact():
    """Lost partition whose parent sits in the remote tier: Eq. 4 prices
    the parent through ``cost_remote``, which mirrors the engine's charge
    operand for operand — prediction must be exact."""
    ctx = _elastic_blaze_ctx()
    base = ctx.parallelize(
        list(range(40)), 4,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.05 * MiB),
    )
    base.cache()
    top = base.map(lambda x: x + 1).named("top")
    top.cache()
    expected = sorted(top.collect())
    assert _demote_all_cached(ctx, base.rdd_id) == 4
    assert _lose_all_cached(ctx, top.rdd_id) == 4

    assert sorted(top.collect()) == expected
    gone = _samples(ctx, "gone")
    assert len(gone) == 4
    for sample in gone:
        assert sample.measured_seconds > 0
        assert sample.relative_error <= EXACT_TOL, sample
    # Non-vacuity: the recovery really crossed the tier.
    assert ctx.metrics.remote_tier_hits >= 4


def test_deep_chain_over_remote_parent_within_tolerance():
    """A 6-op uncached chain rooted in a remote-resident partition stays
    within the declared chain tolerance (worst-parent vs. linear sum)."""
    ctx = _elastic_blaze_ctx()
    base = ctx.parallelize(
        list(range(40)), 4,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.01 * MiB),
    )
    base.cache()
    rdd = base
    for i in range(5):  # uncached intermediates: recovery walks them all
        rdd = rdd.map(
            lambda x, c=i: x + c, op_cost=OpCost(per_element_out=1e-3)
        )
    rdd = rdd.named("deep-remote")
    rdd.cache()
    expected = sorted(rdd.collect())
    assert _demote_all_cached(ctx, base.rdd_id) == 4
    assert _lose_all_cached(ctx, rdd.rdd_id) == 4

    assert sorted(rdd.collect()) == expected
    gone = _samples(ctx, "gone")
    assert len(gone) == 4
    for sample in gone:
        assert sample.measured_seconds > 0
        assert sample.relative_error <= CHAIN_TOL, sample
    assert ctx.metrics.remote_tier_hits >= 4


def test_calibration_summary_aggregates_samples():
    ctx = _blaze_ctx()
    data = ctx.parallelize(
        list(range(40)), 4,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.01 * MiB),
    )
    data.cache()
    data.collect()
    _lose_all_cached(ctx, data.rdd_id)
    data.collect()
    report = ctx.report()
    summary = report.recovery_calibration()
    assert summary["samples"] == len(report.recovery_samples) > 0
    assert summary["max_rel_error"] >= summary["mean_rel_error"] >= 0.0
