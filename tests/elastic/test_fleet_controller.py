"""FleetController: scale-up wiring, drain migration, preemption wipes."""

from __future__ import annotations

import zlib

import numpy as np

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    ElasticConfig,
    GiB,
    MiB,
)
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.elastic import FleetController, ScaleSchedule, ScaleSpec
from repro.metrics.collector import TaskMetrics
from repro.storage.columnar import DISK_CODEC, MEMORY_CODEC, ColumnarBatch

from conftest import AnnotatedBlazeCacheManager


def _ctx(num_executors=3, memory_mb=256, **elastic_kwargs):
    elastic = ElasticConfig(**elastic_kwargs)
    bcfg = BlazeConfig(ilp_enabled=False, elastic=elastic)
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=num_executors,
            slots_per_executor=2,
            memory_store_bytes=memory_mb * MiB,
            disk=DiskConfig(capacity_bytes=10 * GiB),
        ),
        AnnotatedBlazeCacheManager(config=bcfg),
        blaze_config=bcfg,
        scale_schedule=ScaleSchedule(),  # the pool; the tests drive the fleet
    )
    ctx._elastic = elastic
    return ctx


def _make(ctx, specs):
    controller = FleetController(
        ScaleSchedule(tuple(specs)), ctx.cluster, ctx.cache_manager,
        ctx._elastic,
    )
    ctx.driver.fleet = controller
    return controller


def _cache_some(ctx, n=6):
    data = ctx.parallelize(
        list(range(n * 10)), n,
        op_cost=OpCost(per_element_out=1e-3),
        size_model=SizeModel(bytes_per_element=0.02 * MiB),
    )
    data.cache()
    expected = sorted(data.collect())
    return data, expected


def test_scale_up_provisions_and_wires_new_executors():
    ctx = _ctx(num_executors=2)
    controller = _make(ctx, [ScaleSpec(0.0, "scale_up", count=2)])
    controller.poll(ctx.cluster.clock.now, job_id=0)
    assert ctx.cluster.active_ids == [0, 1, 2, 3]
    new = ctx.cluster.executors[3]
    # Fresh executors join the shared remote pool and the directory.
    assert new.bm.remote is ctx.cluster.remote_store
    data, expected = _cache_some(ctx)
    # Post-growth placement maps splits over four executors.
    held = {
        ex.executor_id
        for ex in ctx.cluster.active_executors()
        if len(ex.bm.memory)
    }
    assert len(held) == 4
    assert sorted(data.collect()) == expected
    assert ctx.metrics.scale_ups == 1
    assert ctx.metrics.executors_added == 2
    ctx.stop()


def test_scale_up_executor_spills_columnar_blocks_compressed():
    """An executor added by a scale-up moves a cached batch across the
    memory/disk boundary as a codec transition, like the original fleet."""
    ctx = _ctx(num_executors=2)
    controller = _make(ctx, [ScaleSpec(0.0, "scale_up", count=2)])
    controller.poll(ctx.cluster.clock.now, job_id=0)
    data, expected = _cache_some(ctx)
    new = ctx.cluster.executors[3]
    block = next(iter(new.bm.memory.blocks()))
    batch = block.data
    assert isinstance(batch, ColumnarBatch)
    assert batch.codec_name == MEMORY_CODEC
    records = list(batch)
    before = ctx.metrics.codec_transitions

    tm = TaskMetrics()
    new.bm.spill_to_disk(block.block_id, tm)
    on_disk = new.bm.disk.get(block.block_id).data
    assert on_disk is batch and batch.codec_name == DISK_CODEC
    # one chunk, one int64 column, stored as its zlib level-1 bytes
    raw = np.asarray(records, dtype=np.int64).tobytes()
    assert batch.nbytes == len(zlib.compress(raw, 1)) < len(raw)
    assert list(new.bm.read_from_disk(block.block_id, tm).data) == records
    assert new.bm.promote_to_memory(block.block_id) is block
    assert batch.codec_name == MEMORY_CODEC
    assert ctx.metrics.codec_transitions == before + 2
    assert sorted(data.collect()) == expected
    ctx.stop()


def test_scale_up_respects_max_executors():
    ctx = _ctx(num_executors=2, max_executors=3)
    controller = _make(ctx, [ScaleSpec(0.0, "scale_up", count=5)])
    controller.poll(0.0, job_id=0)
    assert len(ctx.cluster.active_ids) == 3
    assert ctx.metrics.executors_added == 1
    ctx.stop()


def test_scale_down_drains_blocks_to_surviving_homes():
    ctx = _ctx(num_executors=3)
    data, expected = _cache_some(ctx)
    victim = ctx.cluster.executors[1]
    resident = len(victim.bm.memory) + len(victim.bm.disk)
    assert resident > 0
    controller = _make(ctx, [ScaleSpec(0.0, "scale_down", executor_id=1)])
    controller.poll(ctx.cluster.clock.now, job_id=0)
    assert ctx.cluster.active_ids == [0, 2]
    assert len(victim.bm.memory) == 0 and len(victim.bm.disk) == 0
    # Every drained block is still reachable somewhere in the cluster.
    for split in range(data.num_partitions):
        key = (data.rdd_id, split)
        assert (
            ctx.cluster.find_block(key) is not None
            or ctx.cluster.remote_block(key) is not None
        ), key
    assert ctx.metrics.blocks_migrated >= resident
    assert ctx.metrics.total_recompute_seconds == 0.0
    assert sorted(data.collect()) == expected
    assert ctx.metrics.total_recompute_seconds == 0.0  # all reads were hits
    ctx.stop()


def test_scale_down_never_goes_below_min_executors():
    ctx = _ctx(num_executors=2, min_executors=2)
    controller = _make(ctx, [ScaleSpec(0.0, "scale_down", executor_id=0, count=2)])
    controller.poll(0.0, job_id=0)
    assert ctx.cluster.active_ids == [0, 1]
    assert ctx.metrics.executors_removed == 0
    ctx.stop()


def test_preemption_wipes_local_state_but_remote_tier_survives():
    from repro.metrics.collector import TaskMetrics

    ctx = _ctx(num_executors=2)
    data, expected = _cache_some(ctx, n=4)
    victim = ctx.cluster.executors[0]
    # Park one partition in the cluster-owned pool before the reclaim.
    spared = next(iter(victim.bm.memory.blocks()))
    victim.bm.demote_to_remote(spared.block_id, TaskMetrics())
    lost = [b.block_id for b in victim.bm.cached_blocks()]
    assert lost
    controller = _make(ctx, [ScaleSpec(0.0, "preemption", executor_id=0)])
    controller.poll(ctx.cluster.clock.now, job_id=0)
    assert ctx.cluster.active_ids == [1]
    for key in lost:
        assert ctx.cluster.find_block(key) is None
    assert ctx.cluster.remote_block(spared.block_id) is spared
    assert ctx.metrics.preemptions == 1
    # Lineage recovery restores the lost partitions; results converge.
    assert sorted(data.collect()) == expected
    assert ctx.metrics.total_recompute_seconds > 0.0
    ctx.stop()


def test_events_fire_in_time_order_at_stage_boundaries():
    ctx = _ctx(num_executors=2)
    controller = _make(ctx, [
        ScaleSpec(10.0, "scale_up", count=1),   # future: must not fire yet
        ScaleSpec(0.0, "scale_up", count=1),
    ])
    assert controller.pending_count == 2
    controller.poll(0.0, job_id=0)
    assert controller.pending_count == 1
    assert ctx.cluster.active_ids == [0, 1, 2]
    controller.poll(11.0, job_id=0)
    assert controller.pending_count == 0
    assert ctx.cluster.active_ids == [0, 1, 2, 3]
    ctx.stop()


def test_parked_executor_is_reused_before_fresh_provisioning():
    ctx = _ctx(num_executors=3)
    controller = _make(ctx, [
        ScaleSpec(0.0, "scale_down", executor_id=1),
        ScaleSpec(1.0, "scale_up", count=1),
    ])
    controller.poll(0.0, job_id=0)
    assert ctx.cluster.active_ids == [0, 2]
    controller.poll(1.0, job_id=0)
    # The parked id rejoins; no fresh executor is provisioned.
    assert ctx.cluster.active_ids == [0, 1, 2]
    assert len(ctx.cluster.executors) == 3
    ctx.stop()


def test_schedule_alone_scales_the_fleet():
    """No config field has to agree: a non-empty schedule scales the fleet."""
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=256 * MiB,
            disk=DiskConfig(capacity_bytes=10 * GiB),
        ),
        BlazeCacheManager(config=BlazeConfig()),
        scale_schedule=ScaleSchedule((ScaleSpec(0.0, "scale_up", count=1),)),
    )
    assert ctx.cluster.remote_store is not None
    _cache_some(ctx)
    assert ctx.report().elastic_counters["scale_events"] > 0
    assert ctx.cluster.active_ids == [0, 1, 2]
    ctx.stop()
