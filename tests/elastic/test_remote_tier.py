"""Remote-memory tier: primitives, charge model, eviction ladder, lookups."""

from __future__ import annotations

import pytest

from repro.cluster.blocks import Block, BlockLocation
from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    ElasticConfig,
    GiB,
    MiB,
    RemoteMemoryConfig,
)
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.elastic import ScaleSchedule
from repro.errors import StorageError
from repro.metrics.collector import TaskMetrics

from conftest import AnnotatedBlazeCacheManager


def _elastic_bcfg(**remote_kwargs) -> BlazeConfig:
    return BlazeConfig(
        ilp_enabled=False,
        elastic=ElasticConfig(remote_memory=RemoteMemoryConfig(**remote_kwargs)),
    )


def _ctx(memory_mb: float = 512, **remote_kwargs) -> BlazeContext:
    bcfg = _elastic_bcfg(**remote_kwargs)
    return BlazeContext(
        ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=memory_mb * MiB,
            disk=DiskConfig(capacity_bytes=10 * GiB),
        ),
        AnnotatedBlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
        scale_schedule=ScaleSchedule(),  # a fixed fleet with the pool
    )


def _block(rdd_id: int, split: int, size: float = 4 * MiB, ser: float = 1.0) -> Block:
    return Block(
        block_id=(rdd_id, split), data=[split], size_bytes=size, ser_factor=ser
    )


def test_demote_read_promote_roundtrip_with_exact_charges():
    ctx = _ctx()
    remote = ctx.cluster.remote_config
    bm = ctx.cluster.executors[0].bm
    block = _block(1, 0, size=8 * MiB, ser=1.5)
    bm.insert_memory(block)

    tm = TaskMetrics()
    assert bm.demote_to_remote(block.block_id, tm) is block
    assert bm.location_of(block.block_id) is None  # left the executor
    assert ctx.cluster.remote_block(block.block_id) is block
    assert tm.remote_tier_write_seconds == pytest.approx(
        remote.latency_seconds + block.size_bytes / remote.write_bytes_per_sec
    )
    assert tm.ser_seconds == pytest.approx(
        block.size_bytes * remote.ser_seconds_per_byte * block.ser_factor
    )

    tm = TaskMetrics()
    assert bm.read_from_remote(block.block_id, tm) is block
    expected_read = (
        remote.latency_seconds + block.size_bytes / remote.read_bytes_per_sec
    )
    assert tm.remote_tier_read_seconds == pytest.approx(expected_read)
    assert tm.deser_seconds == pytest.approx(
        block.size_bytes * remote.deser_seconds_per_byte * block.ser_factor
    )
    # The tier transfer counts as (dis)aggregated storage I/O.
    assert tm.disk_io_seconds >= expected_read

    # Promotion back into free memory is free (data already deserialized).
    promoted = bm.promote_from_remote(block.block_id)
    assert promoted is block
    assert bm.location_of(block.block_id) is BlockLocation.MEMORY
    assert ctx.cluster.remote_block(block.block_id) is None
    m = ctx.metrics
    assert m.remote_demotions == 1
    assert m.remote_promotions == 1
    assert m.remote_tier_hits == 1
    ctx.stop()


def test_remote_pool_is_shared_across_executors():
    ctx = _ctx()
    e0, e1 = ctx.cluster.executors
    block = _block(2, 0)
    e0.bm.insert_memory(block)
    assert e0.bm.demote_to_remote(block.block_id, TaskMetrics()) is block
    # Any executor reads the same cluster-owned pool.
    assert e1.bm.read_from_remote(block.block_id, TaskMetrics()) is block
    assert e0.bm.remote is e1.bm.remote is ctx.cluster.remote_store
    ctx.stop()


def test_demote_without_tier_or_space_returns_none():
    # Tier disabled: primitives decline instead of erroring.
    bcfg = BlazeConfig(ilp_enabled=False)
    ctx = BlazeContext(
        ClusterConfig(num_executors=1, memory_store_bytes=64 * MiB),
        AnnotatedBlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
    )
    bm = ctx.cluster.executors[0].bm
    block = _block(3, 0)
    bm.insert_memory(block)
    assert bm.remote is None
    assert bm.demote_to_remote(block.block_id, TaskMetrics()) is None
    assert not bm.insert_remote(_block(3, 1), TaskMetrics())
    with pytest.raises(StorageError):
        bm.read_from_remote(block.block_id, TaskMetrics())
    ctx.stop()

    # Tiny pool: a block that does not fit falls back to the disk branch.
    ctx = _ctx(capacity_bytes=1 * MiB)
    bm = ctx.cluster.executors[0].bm
    big = _block(3, 2, size=4 * MiB)
    bm.insert_memory(big)
    assert bm.demote_to_remote(big.block_id, TaskMetrics()) is None
    assert bm.location_of(big.block_id) is BlockLocation.MEMORY
    ctx.stop()


def test_promote_from_remote_never_displaces_residents():
    ctx = _ctx(memory_mb=10)
    bm = ctx.cluster.executors[0].bm
    remote_block = _block(4, 0, size=6 * MiB)
    bm.insert_memory(remote_block)
    bm.demote_to_remote(remote_block.block_id, TaskMetrics())
    filler = _block(5, 0, size=6 * MiB)
    bm.insert_memory(filler)  # memory now too full for the remote block
    assert bm.promote_from_remote(remote_block.block_id) is None
    assert ctx.cluster.remote_block(remote_block.block_id) is remote_block
    assert bm.location_of(filler.block_id) is BlockLocation.MEMORY
    ctx.stop()


def test_cost_model_prices_remote_between_memory_and_disk():
    """potential_cost includes the remote read; the eviction ladder picks
    "remote" exactly when the remote round-trip beats both disk and
    recompute (strict improvement, so legacy decisions never flip)."""
    ctx = _ctx()
    manager = ctx.cache_manager
    data = ctx.parallelize(
        list(range(32)), 2,
        op_cost=OpCost(per_element_out=2.0),  # very expensive to recompute
        size_model=SizeModel(bytes_per_element=0.5 * MiB),
    )
    data.cache()
    data.collect()
    cm = manager.cost_model
    block = next(
        b for ex in ctx.cluster.executors for b in ex.bm.memory.blocks()
        if b.rdd_id == data.rdd_id
    )
    rdd_id, split = block.block_id
    state_fn = manager._state_of
    remote_cost = cm.cost_remote(rdd_id, split)
    disk_cost = cm.cost_d(rdd_id, split)
    recompute = cm.cost_r(rdd_id, split, state_fn)
    assert cm.potential_cost(rdd_id, split, state_fn) == pytest.approx(
        min(disk_cost, recompute, remote_cost)
    )
    # 1 GiB/s network beats the default disk model, recompute is huge:
    # the preferred eviction state must be the remote tier.
    assert remote_cost < min(disk_cost, recompute)
    assert cm.preferred_eviction_state(rdd_id, split, state_fn) == "remote"
    ctx.stop()


def test_manager_prices_the_tier_the_cluster_has():
    """Only the cluster says which tiers exist: a manager built from a plain
    ``BlazeConfig`` on a context with the pool prices the pool."""
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=2, slots_per_executor=2,
            memory_store_bytes=512 * MiB, disk=DiskConfig(capacity_bytes=10 * GiB),
        ),
        BlazeCacheManager(config=BlazeConfig()),
        scale_schedule=ScaleSchedule(),
    )
    manager = ctx.cache_manager
    data = ctx.parallelize(
        list(range(32)), 2,
        op_cost=OpCost(per_element_out=1e-2),
        size_model=SizeModel(bytes_per_element=0.5 * MiB),
    )
    data.cache()
    data.collect()
    executor = ctx.cluster.executors[0]
    block = next(b for b in executor.bm.memory.blocks() if b.rdd_id == data.rdd_id)
    assert executor.bm.demote_to_remote(block.block_id, TaskMetrics()) is block
    rdd_id, split = block.block_id
    cm = manager.cost_model
    expected = cm.cost_remote(rdd_id, split)
    assert manager.predicted_recovery_cost(rdd_id, split, "remote") == expected
    assert cm.recovery_cost(rdd_id, split, manager._state_of) == expected
    ctx.stop()


def test_engine_reads_back_from_remote_tier():
    """A cached partition demoted to the remote tier cache-hits from there
    on the next pass (``cache.hit_remote``) instead of recomputing."""
    from repro.tracing import InMemoryTracer

    bcfg = _elastic_bcfg()
    tracer = InMemoryTracer()
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=2, slots_per_executor=2,
            memory_store_bytes=512 * MiB, disk=DiskConfig(capacity_bytes=10 * GiB),
        ),
        AnnotatedBlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
        tracer=tracer,
        scale_schedule=ScaleSchedule(),
    )
    data = ctx.parallelize(
        list(range(40)), 4,
        op_cost=OpCost(per_element_out=1e-2),
        size_model=SizeModel(bytes_per_element=0.05 * MiB),
    )
    data.cache()
    expected = sorted(data.collect())
    for executor in ctx.cluster.executors:
        for block in list(executor.bm.memory.blocks()):
            assert executor.bm.demote_to_remote(block.block_id, TaskMetrics())
    assert sorted(data.collect()) == expected
    assert ctx.metrics.remote_tier_hits >= 4
    assert ctx.metrics.total_recompute_seconds == 0.0
    names = {e.name for e in tracer.events}
    assert "cache.hit_remote" in names
    assert "block.demoted_remote" in names
    ctx.stop()


def test_fractional_tenant_quota_scales_with_active_fleet():
    from repro.service.tenancy import TenantRegistry

    ctx = _ctx(memory_mb=100)
    registry = TenantRegistry({"a": 0.5, "b": 200 * MiB})
    registry.cluster = ctx.cluster
    # Fractional: half the active fleet's aggregate memory capacity.
    assert registry.quota_of("a") == pytest.approx(
        0.5 * ctx.cluster.active_memory_capacity_bytes()
    )
    # Absolute quotas (> 1) are bytes, unchanged.
    assert registry.quota_of("b") == 200 * MiB
    before = registry.quota_of("a")
    ctx.cluster.activate_executor()
    assert registry.quota_of("a") == pytest.approx(1.5 * before)
    ctx.stop()
