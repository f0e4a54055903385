"""Sharded engine end-to-end: kill switch, counters, trace identity.

The deep identity battery (all presets, faulted, service multi-tenant)
lives in ``tests/integration/test_trace_identity.py``; these tests pin
the engine-level contract on a quick workload for both transports.
"""

from __future__ import annotations

import json

import pytest

from repro.config import BlazeConfig, ClusterConfig, ConfigError
from repro.dataflow.context import BlazeContext
from repro.tracing import InMemoryTracer

SEED = 3


def _run(sharded: bool, transport: str = "local", num_shards: int = 3):
    cc = ClusterConfig(num_executors=4, memory_store_bytes=200_000)
    bc = BlazeConfig(
        sharded_engine=sharded, num_shards=num_shards, shard_transport=transport
    )
    ctx = BlazeContext(
        cluster_config=cc, blaze_config=bc, seed=SEED, tracer=InMemoryTracer()
    )
    src = ctx.source(lambda s, rng: [(i % 50, i * s) for i in range(400)], 16)
    base = src.map(lambda x: (x[0], x[1] * 2)).cache()
    for _ in range(3):
        base.filter(lambda x: x[1] % 3 != 0).reduce_by_key(
            lambda x, y: x + y, num_partitions=8
        ).count()
    result = base.collect()
    report = ctx.report()
    events = [json.dumps(e.to_dict(), sort_keys=True) for e in report.events]
    counters = report.shard_counters
    ctx.stop()
    return result, events, counters


def test_kill_switch_off_leaves_counters_zero():
    _, _, counters = _run(False)
    assert counters == {
        "tasks_dispatched": 0,
        "barrier_syncs": 0,
        "residency_deltas": 0,
        "shuffle_fetch_rpcs": 0,
    }


def test_sharded_run_populates_counters():
    _, _, counters = _run(True)
    assert counters["tasks_dispatched"] > 0
    assert counters["barrier_syncs"] > 0
    assert counters["residency_deltas"] > 0
    assert counters["shuffle_fetch_rpcs"] > 0


def test_local_transport_trace_is_byte_identical():
    r_off, e_off, _ = _run(False)
    r_on, e_on, _ = _run(True, "local")
    assert r_off == r_on
    assert e_off == e_on


def test_single_shard_degenerate_plan_is_identical():
    r_off, e_off, _ = _run(False)
    r_on, e_on, _ = _run(True, "local", num_shards=1)
    assert r_off == r_on
    assert e_off == e_on


def test_process_transport_trace_is_byte_identical():
    r_off, e_off, _ = _run(False)
    r_on, e_on, counters = _run(True, "process")
    assert r_off == r_on
    assert e_off == e_on
    assert counters["tasks_dispatched"] > 0
    assert counters["barrier_syncs"] > 0
    assert counters["shuffle_fetch_rpcs"] > 0


def test_config_validation():
    with pytest.raises(ConfigError):
        BlazeConfig(num_shards=0)
    with pytest.raises(ConfigError):
        BlazeConfig(shard_transport="carrier-pigeon")
