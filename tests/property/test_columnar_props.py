"""Property tests: the columnar backend is observationally invisible.

Randomized narrow-op programs run twice — under the ``list_plane``
fixture and on the columnar plane — over the same seed, with data drawn
from analyzable (int) and non-analyzable (string / mixed) pools so both
the kernel path and the per-split fallback are exercised.  The columnar run must match the list
oracle in everything the engine exposes: per-partition element lists
(order and Python types included), the TaskMetrics ledger, eviction
counts, and the byte-exact JSONL trace.

A second group property-checks the storage layer itself: encode/decode
round-trips are lossless under both tier codecs at any chunk height, and
``nbytes`` on the memory tier is exactly the raw column footprint.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.storage import columnar as columnar_module
from repro.storage.columnar import DISK_CODEC, MEMORY_CODEC, ColumnarBatch
from repro.systems.presets import make_system
from repro.tracing import InMemoryTracer, to_jsonl

#: one random program step: op kind plus its integer parameter
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("map"), st.integers(min_value=-3, max_value=3)),
        st.tuples(st.just("filter"), st.integers(min_value=2, max_value=5)),
        st.tuples(st.just("flat_map"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("cache"), st.just(0)),
        st.tuples(st.just("branch"), st.just(0)),
    ),
    min_size=1,
    max_size=10,
)
_ints = st.integers(min_value=-50, max_value=50)
#: analyzable (pure int), non-analyzable (strings), and mixed partitions —
#: the latter two must route every split through the exact fallback
_data = st.one_of(
    st.lists(_ints, min_size=0, max_size=40),
    st.lists(st.sampled_from(["a", "bb", "ccc"]), min_size=0, max_size=10),
    st.lists(st.one_of(_ints, st.just("x")), min_size=0, max_size=20),
)
_widths = st.integers(min_value=1, max_value=5)
_seeds = st.integers(min_value=0, max_value=2**16)
_systems = st.sampled_from(["spark", "blaze_no_profile", "costaware"])


def _manager(system: str, bcfg: BlazeConfig):
    if system == "spark":
        return SparkCacheManager(StorageMode.MEM_AND_DISK, "lru")
    return make_system(system).build(profile=None, blaze_config=bcfg)


def _run_program(system, steps, data, width, seed):
    """Build the random DAG, run its actions twice, snapshot observables."""
    bcfg = BlazeConfig()
    tracer = InMemoryTracer()
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=2 * MiB,  # small enough to evict sometimes
            disk=DiskConfig(capacity_bytes=1 * GiB),
        ),
        _manager(system, bcfg),
        seed=seed,
        tracer=tracer,
        blaze_config=bcfg,
    )
    try:
        rdd = ctx.parallelize(
            data,
            width,
            op_cost=OpCost(per_element_out=1e-3),
            size_model=SizeModel(bytes_per_element=0.02 * MiB),
        )
        branches = []
        for kind, arg in steps:
            if kind == "map":
                rdd = rdd.map(lambda x, c=arg: x + c)
            elif kind == "filter":
                rdd = rdd.filter(lambda x, m=arg: x % m != 0)
            elif kind == "flat_map":
                rdd = rdd.flat_map(lambda x, r=arg: [x] * r)
            elif kind == "cache":
                rdd.cache()
            else:  # branch: give the current node a second consumer
                branches.append(rdd.map(lambda x: -x))

        partitions = []
        error = None
        try:
            for _ in range(2):  # second pass exercises cached/recovered reads
                partitions.append(ctx.run_job(rdd, lambda _s, part: list(part)))
                for b in branches:
                    partitions.append(ctx.run_job(b, lambda _s, part: list(part)))
        except Exception as exc:  # user-fn and engine errors must match
            error = f"{type(exc).__name__}: {exc}"
        counters = ctx.report().decision_counters
        return {
            "partitions": partitions,
            "error": error,
            "metrics": ctx.metrics.total,
            "evictions": ctx.metrics.total_evictions,
            "trace": to_jsonl(tracer.events),
            "counters": counters,
            "encoded": counters["columnar_batches_encoded"],
            "kernel_partitions": counters["kernel_partitions"],
        }
    finally:
        ctx.stop()


@settings(max_examples=40, deadline=None)
@given(system=_systems, steps=_steps, data=_data, width=_widths, seed=_seeds)
def test_columnar_matches_list_oracle(system, steps, data, width, seed, list_plane):
    with list_plane():
        off = _run_program(system, steps, data, width, seed)
    on = _run_program(system, steps, data, width, seed)
    assert on["partitions"] == off["partitions"]
    assert on["error"] == off["error"]
    assert on["metrics"] == off["metrics"]
    assert on["evictions"] == off["evictions"]
    assert on["trace"] == off["trace"]
    assert on["counters"]["ilp_nodes"] == off["counters"]["ilp_nodes"]
    # the list plane really has no columnar layer
    assert off["encoded"] == 0 and off["kernel_partitions"] == 0
    assert off["counters"]["kernel_chains_compiled"] == 0
    assert off["counters"]["codec_transitions"] == 0


def test_kernels_actually_fire(list_plane):
    """Guard against the property passing vacuously: an int chain with a
    cached source must encode batches and run at least one kernel split.
    Both planes fuse the chain, pipeline partitions and hit the
    ``bytes_for`` memo."""
    steps = [("cache", 0), ("map", 1), ("map", 2), ("filter", 3)]
    on = _run_program("spark", steps, list(range(200)), 2, 0)
    assert on["encoded"] > 0
    assert on["kernel_partitions"] > 0
    assert on["counters"]["kernel_chains_compiled"] > 0
    with list_plane():
        off = _run_program("spark", steps, list(range(200)), 2, 0)
    for counters in (off["counters"], on["counters"]):
        assert counters["chains_fused"] > 0
        assert counters["partitions_pipelined"] > 0
        assert counters["bytes_for_memo_hits"] > 0


def test_string_data_never_encodes():
    steps = [("cache", 0), ("map", 0)]
    on = _run_program("spark", steps, ["a", "bb"] * 20, 2, 0)
    assert on["encoded"] == 0
    assert on["kernel_partitions"] == 0


# -- storage-layer properties ------------------------------------------

_scalar_records = st.one_of(
    st.lists(_ints, min_size=1, max_size=200),
    st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=200),
    st.lists(st.booleans(), min_size=1, max_size=200),
)
_pair_records = st.lists(
    st.tuples(_ints, st.floats(allow_nan=False, width=64)),
    min_size=1,
    max_size=200,
)
_codecs = st.sampled_from([MEMORY_CODEC, DISK_CODEC])
_chunk_rows = st.integers(min_value=1, max_value=64)


@settings(max_examples=60, deadline=None)
@given(
    records=st.one_of(_scalar_records, _pair_records),
    codec=_codecs,
    other=_codecs,
    chunk_rows=_chunk_rows,
)
def test_codec_round_trip_lossless(records, codec, other, chunk_rows):
    # a small chunk height puts chunk boundaries inside these short batches
    with mock.patch.object(columnar_module, "CHUNK_ROWS", chunk_rows):
        batch = ColumnarBatch.from_records(records)
    assert batch is not None
    assert batch.num_chunks == -(-len(records) // chunk_rows)
    batch.transcode(codec)
    assert list(batch) == records
    assert batch.nbytes >= 0
    batch.transcode(other)
    assert list(batch) == records  # transition never touches content


@settings(max_examples=40, deadline=None)
@given(records=_pair_records, extra=st.integers(min_value=1, max_value=50))
def test_null_codec_nbytes_is_exact_and_monotone(records, extra):
    base = ColumnarBatch.from_records(records)
    grown = ColumnarBatch.from_records(records + records[:1] * extra)
    assert base.nbytes == len(records) * 16  # int64 + float64 per row
    assert grown.nbytes == base.nbytes + extra * 16


@settings(max_examples=40, deadline=None)
@given(records=_scalar_records)
def test_compressed_nbytes_positive_and_decodable(records):
    batch = ColumnarBatch.from_records(records)
    batch.transcode(DISK_CODEC)
    assert batch.nbytes > 0
    assert list(batch) == records
    col = batch.columns()[0]  # decoded view is the full-width raw column
    assert col.nbytes == len(records) * col.dtype.itemsize
