"""Regression: block loss must go through the engine's loss primitives.

The decision layer mirrors memory residency in a
per-executor :class:`VictimIndex`, maintained by the block manager's
residency listener.  Removing a memory block *behind the listener's back*
(as a naive fault injector would: ``bm.memory.remove(block_id)``) leaves
the index holding a ghost entry; the next pressure admission selects the
ghost as its cheapest victim and the eviction trips a
:class:`StorageError` deep inside the store.

``BlockManager.purge_lost`` — the loss primitive the fault layer uses —
performs the same removal *through* the listener, so the identical
admission sequence stays consistent.  ``DecisionCostCache.forget``
(driven by ``on_block_lost``) is the companion hygiene for the cost
memos: a vanished partition's entries can never be revalidated and must
not be served stale after recovery recomputes it.
"""

from __future__ import annotations

import pytest

from repro.cluster.blocks import Block
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.errors import StorageError
from repro.metrics.collector import TaskMetrics


def _lru_ctx() -> BlazeContext:
    """+AutoCache ablation (LRU victim order).

    One executor, one slot: placement and access order are sequential, so
    partition 0 of the first cached dataset is always the LRU victim.
    """
    bcfg = BlazeConfig(
        cost_aware_enabled=False,
        recompute_option_enabled=False,
        ilp_enabled=False,
        admission_enabled=False,
    )
    return BlazeContext(
        ClusterConfig(
            num_executors=1,
            slots_per_executor=1,
            memory_store_bytes=4 * MiB,
            disk=DiskConfig(capacity_bytes=1 * GiB),
        ),
        BlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
    )


def _fill_memory(ctx: BlazeContext):
    """Cache a 4x1MiB dataset, exactly filling the memory store."""
    rdd = ctx.parallelize(
        list(range(8)), 4,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.5 * MiB),
    )
    rdd.cache()
    rdd.collect()
    bm = ctx.cluster.executors[0].bm
    assert len(bm.memory) == 4, "scenario must fill the memory store"
    return rdd


def _incoming_block() -> Block:
    """A 2 MiB admission candidate: forces a one-victim eviction."""
    return Block(
        block_id=(999, 0), data=[0], size_bytes=2 * MiB, rdd_name="incoming"
    )


def test_raw_store_removal_leaves_a_stale_victim():
    """The bug the loss primitive exists to prevent, pinned down.

    A block removed directly from the memory store is still listed by the
    victim index; admitting under pressure selects the ghost and the
    spill blows up inside the store.
    """
    ctx = _lru_ctx()
    try:
        rdd = _fill_memory(ctx)
        executor = ctx.cluster.executors[0]
        # Behind the listener's back: the index never hears about this.
        executor.bm.memory.remove((rdd.rdd_id, 0))

        with pytest.raises(StorageError, match="missing block"):
            ctx.cache_manager._admit(
                executor, _incoming_block(), 1, TaskMetrics(), from_disk=False
            )
    finally:
        ctx.stop()


def test_purge_lost_keeps_admissions_working():
    """The identical sequence through ``purge_lost`` stays consistent."""
    ctx = _lru_ctx()
    try:
        rdd = _fill_memory(ctx)
        executor = ctx.cluster.executors[0]
        lost = executor.bm.purge_lost((rdd.rdd_id, 0))
        ctx.cache_manager.on_block_lost(executor, lost)

        ctx.cache_manager._admit(
            executor, _incoming_block(), 1, TaskMetrics(), from_disk=False
        )
        bm = executor.bm
        # The incoming block displaced the true LRU victim (split 1): one
        # spill to disk, the ghost never considered, and the store's
        # picture matches the index's.
        assert (999, 0) in bm.memory
        assert (rdd.rdd_id, 1) in bm.disk
        assert ctx.metrics.blocks_lost == 1
        index = ctx.cache_manager._indexes[executor.executor_id]
        assert set(index._blocks) == {b.block_id for b in bm.memory.blocks()}
    finally:
        ctx.stop()


def test_on_block_lost_forgets_cost_memos():
    """A lost partition's memoized costs are dropped, not served stale."""
    bcfg = BlazeConfig(
        cost_aware_enabled=True,
        recompute_option_enabled=False,
        ilp_enabled=False,
        admission_enabled=False,
    )
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=1,
            slots_per_executor=1,
            memory_store_bytes=64 * MiB,
            disk=DiskConfig(capacity_bytes=1 * GiB),
        ),
        BlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
    )
    try:
        rdd = _fill_memory(ctx)
        dc = ctx.cache_manager._cache
        dc.potential_cost(rdd.rdd_id, 0)
        dc.cost_r(rdd.rdd_id, 0)
        assert (rdd.rdd_id, 0) in dc._pc
        assert (rdd.rdd_id, 0) in dc._cr

        executor = ctx.cluster.executors[0]
        lost = executor.bm.purge_lost((rdd.rdd_id, 0))
        ctx.cache_manager.on_block_lost(executor, lost)
        assert (rdd.rdd_id, 0) not in dc._pc
        assert (rdd.rdd_id, 0) not in dc._cr
    finally:
        ctx.stop()
