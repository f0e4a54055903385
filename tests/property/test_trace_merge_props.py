"""Property tests: the sharded trace merge is reordering-proof.

The sharded engine buffers trace emissions per shard and merges them by
``(epoch, vtime, shard, local_seq)``.  The property that makes the whole
scheme sound: the merge result is invariant under *any* shuffling and
re-bucketing of the routed entries — so the arrival order of shard
buffers (nondeterministic under the process transport) can never perturb
the JSONL, which stays byte-for-byte equal to the single-process trace.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BlazeConfig, ClusterConfig
from repro.dataflow.context import BlazeContext
from repro.tracing import InMemoryTracer, to_jsonl
from repro.tracing.tracer import merge_routed_entries

SEED = 3


def _workload(ctx):
    src = ctx.source(lambda s, rng: [(i % 40, i * s) for i in range(300)], 12)
    base = src.map(lambda x: (x[0], x[1] + 1)).cache()
    for _ in range(2):
        base.filter(lambda x: x[1] % 2 == 0).reduce_by_key(
            lambda x, y: x + y, num_partitions=6
        ).count()
    base.collect()


def _run(sharded: bool) -> InMemoryTracer:
    tracer = InMemoryTracer()
    ctx = BlazeContext(
        cluster_config=ClusterConfig(
            num_executors=4, memory_store_bytes=150_000
        ),
        blaze_config=BlazeConfig(sharded_engine=sharded, num_shards=3),
        seed=SEED,
        tracer=tracer,
    )
    _workload(ctx)
    ctx.stop()
    return tracer


@pytest.fixture(scope="module")
def traces():
    baseline = to_jsonl(_run(False).events)
    routed_tracer = _run(True)
    entries = [
        entry for buffer in routed_tracer._routed.values() for entry in buffer
    ]
    prefix = tuple(routed_tracer._events)
    assert entries, "sharded run must actually route events"
    return baseline, prefix, entries


@given(rnd=st.randoms(use_true_random=False), num_buffers=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_shuffled_rebucketed_entries_merge_to_the_single_process_jsonl(
    traces, rnd, num_buffers
):
    baseline, prefix, entries = traces
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    buffers = [[] for _ in range(num_buffers)]
    for entry in shuffled:
        buffers[rnd.randrange(num_buffers)].append(entry)
    merged = merge_routed_entries(buffers)
    events = prefix + tuple(
        replace(event, seq=len(prefix) + i) for i, event in enumerate(merged)
    )
    assert to_jsonl(events) == baseline


def test_merge_key_is_total(traces):
    _, _, entries = traces
    keys = [entry[:4] for entry in entries]
    assert len(keys) == len(set(keys)), "duplicate merge keys would make order depend on buffer arrival"
