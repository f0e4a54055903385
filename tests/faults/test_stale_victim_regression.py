"""Regression: block loss and the decision layer's view of residency.

The victim order is sorted from the executor's memory store at every
selection, so a block removed *behind the residency listener's back* (as
a naive fault injector would: ``bm.memory.remove(block_id)``) can never
be selected as a ghost victim — an index that mirrored residency through
the listener selected the ghost and tripped a :class:`StorageError` deep
inside the store.

``BlockManager.purge_lost`` — the loss primitive the fault layer uses —
performs the removal *through* the listener, which ends the decision
epoch: the next cost read recomputes against the post-loss snapshot.
"""

from __future__ import annotations

from repro.cluster.blocks import Block
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.metrics.collector import TaskMetrics


def _lru_ctx() -> BlazeContext:
    """+AutoCache ablation (LRU victim order).

    One executor, one slot: placement and access order are sequential, so
    partition 0 of the first cached dataset is always the LRU victim.
    """
    bcfg = BlazeConfig(rung="autocache")
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


def test_raw_store_removal_leaves_no_ghost_victim():
    """A block removed directly from the memory store is never selected.

    The index never hears about the removal, but it reads the store at
    selection time: admitting under pressure displaces the true LRU
    victim (split 1) and the spill succeeds.
    """
    ctx = _lru_ctx()
    try:
        rdd = _fill_memory(ctx)
        executor = ctx.cluster.executors[0]
        # Behind the listener's back: the decision layer never hears of it.
        executor.bm.memory.remove((rdd.rdd_id, 0))

        ctx.cache_manager._admit(
            executor, _incoming_block(), 1, TaskMetrics(), from_disk=False
        )
        bm = executor.bm
        assert (999, 0) in bm.memory
        assert (rdd.rdd_id, 1) in bm.disk
        assert (rdd.rdd_id, 0) not in bm.disk
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
        # spill to disk, the lost block never considered.
        assert (999, 0) in bm.memory
        assert (rdd.rdd_id, 1) in bm.disk
        assert ctx.metrics.blocks_lost == 1
    finally:
        ctx.stop()


def test_on_block_lost_forgets_cost_memos():
    """The read after a loss is a fresh compute, not a stale memo entry."""
    bcfg = BlazeConfig(rung="costaware")
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
        manager = ctx.cache_manager
        dc = manager._cache
        dc.potential_cost(rdd.rdd_id, 0)
        dc.cost_r(rdd.rdd_id, 0)

        executor = ctx.cluster.executors[0]
        lost = executor.bm.purge_lost((rdd.rdd_id, 0))
        manager.on_block_lost(executor, lost)
        misses = ctx.metrics.cost_memo_misses
        model, state_fn = manager.cost_model, manager._future_state_of
        assert dc.potential_cost(rdd.rdd_id, 0) == model.potential_cost(
            rdd.rdd_id, 0, state_fn, {}
        )
        assert dc.cost_r(rdd.rdd_id, 0) == model.cost_r(rdd.rdd_id, 0, state_fn, {})
        assert ctx.metrics.cost_memo_misses == misses + 1, "the loss ended the epoch"
    finally:
        ctx.stop()
