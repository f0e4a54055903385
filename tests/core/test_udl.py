"""Unified Decision Layer behaviors on a controlled cluster."""

import pytest

from repro.config import BlazeConfig
from repro.core.cost_lineage import JobCapture, StageRef, StreamTemplate
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from conftest import make_cluster_config

MB = 1024 * 1024


def make_blaze_ctx(memory_mb=64, config=None, seed=0):
    manager = BlazeCacheManager(config=config or BlazeConfig())
    ctx = BlazeContext(make_cluster_config(memory_mb=memory_mb), manager, seed=seed)
    return ctx, manager


def test_auto_caches_reused_dataset_without_annotation():
    ctx, manager = make_blaze_ctx()
    src = ctx.source(lambda s, rng: [1.0] * 4, 2, size_model=SizeModel(bytes_per_element=MB))
    derived = src.map(lambda x: x + 1)
    derived.count()  # job 0: src referenced
    derived.count()  # job 1: src referenced again -> reuse learned
    derived.count()
    derived.count()
    assert ctx.cluster.memory_used_bytes() > 0, "reused data cached automatically"


def test_never_caches_single_use_data():
    ctx, manager = make_blaze_ctx()
    src = ctx.source(lambda s, rng: [1.0] * 4, 2, size_model=SizeModel(bytes_per_element=MB))
    src.cache()  # annotation is ignored once knowledge is complete
    # a complete profile: one job that reads src once, then the app ends
    read_once = JobCapture(0, (StageRef(0, (src.rdd_id,)),))
    manager.lineage.current.adopt(StreamTemplate((read_once,), complete=True))
    src.count()
    assert ctx.cluster.memory_used_bytes() == 0


def test_auto_unpersist_drops_dead_data():
    ctx, manager = make_blaze_ctx()
    src = ctx.source(lambda s, rng: [1.0] * 4, 2, size_model=SizeModel(bytes_per_element=MB))
    derived = src.map(lambda x: x)
    for _ in range(4):
        derived.count()
    assert ctx.cluster.memory_used_bytes() > 0
    # A stream of unrelated jobs: src has no future references left.
    for _ in range(3):
        ctx.parallelize([1], 1).count()
    assert ctx.cluster.memory_used_bytes() == 0, "dead data unpersisted"


def test_auto_unpersist_guarded_while_knowledge_incomplete():
    ctx, manager = make_blaze_ctx()
    assert not manager.lineage.knowledge_complete
    src = ctx.source(lambda s, rng: [1.0] * 4, 2, size_model=SizeModel(bytes_per_element=MB))
    src.cache()
    src.count()
    occupied = ctx.cluster.memory_used_bytes()
    assert not manager.lineage.knowledge_complete  # one job: nothing to induce from
    ctx.parallelize([1], 1).count()
    assert ctx.cluster.memory_used_bytes() == occupied, "no unpersist on unknown refs"


def test_eviction_prefers_cheap_recovery():
    """Under pressure the UDL keeps the expensive-to-recover partition."""
    ctx, manager = make_blaze_ctx(memory_mb=9)
    cheap = ctx.source(
        lambda s, rng: [1.0] * 3,
        2,
        op_cost=OpCost(per_element_out=1e-4),
        size_model=SizeModel(bytes_per_element=MB),
        name="cheap",
    )
    costly = ctx.source(
        lambda s, rng: [2.0] * 3,
        2,
        op_cost=OpCost(per_element_out=30.0),
        size_model=SizeModel(bytes_per_element=MB),
        name="costly",
    )
    c1 = cheap.map(lambda x: x)
    c2 = costly.map(lambda x: x)
    for _ in range(4):  # establish reuse for both
        c1.count()
        c2.count()
    costly_cached = sum(
        1
        for ex in ctx.cluster.executors
        for b in ex.bm.memory.blocks()
        if b.rdd_name == "costly"
    )
    assert costly_cached > 0, "the expensive dataset stays resident"


def test_mem_only_variant_never_writes_disk():
    ctx, _ = make_blaze_ctx(memory_mb=6, config=BlazeConfig(disk_enabled=False))
    src = ctx.source(lambda s, rng: [1.0] * 8, 2, size_model=SizeModel(bytes_per_element=MB))
    derived = src.map(lambda x: x)
    for _ in range(4):
        derived.count()
    assert ctx.metrics.disk_bytes_written_total == 0


def test_ilp_runs_on_job_submit():
    ctx, manager = make_blaze_ctx(memory_mb=16)
    src = ctx.source(lambda s, rng: [1.0] * 4, 2, size_model=SizeModel(bytes_per_element=MB))
    derived = src.map(lambda x: x)
    for _ in range(5):
        derived.count()
    assert ctx.metrics.ilp_solves > 0


def test_ablation_flags_reported_in_name():
    assert BlazeCacheManager(BlazeConfig(cost_aware_enabled=False)).name == "blaze[+autocache]"
    assert BlazeCacheManager(BlazeConfig(ilp_enabled=False)).name == "blaze[+costaware]"
    assert BlazeCacheManager(BlazeConfig(disk_enabled=False)).name == "blaze[mem-only]"
    assert BlazeCacheManager(BlazeConfig(profiling_enabled=False)).name == "blaze[no-profiling]"
    assert BlazeCacheManager().name == "blaze"


def test_future_state_discounts_dying_ancestors():
    ctx, manager = make_blaze_ctx()
    src = ctx.source(lambda s, rng: [1.0] * 4, 2, size_model=SizeModel(bytes_per_element=MB))
    derived = src.map(lambda x: x)
    derived.count()
    derived.count()
    # src is in memory now; pretend its references are exhausted.
    manager.lineage.set_position(99, 0)
    for ex in ctx.cluster.executors:
        for block in ex.bm.memory.blocks():
            if block.rdd_id == src.rdd_id:
                assert manager._state_of(src.rdd_id, block.split) == "mem"
                assert manager._future_state_of(src.rdd_id, block.split) == "gone"
                return
    pytest.skip("src not cached in this configuration")
