"""Unit tests for the columnar storage package: batches, tier codecs, tiering.

The contract under test: a :class:`ColumnarBatch` is an exact stand-in
for the list it encodes (iteration/indexing/length bit-identical),
``nbytes`` measures stored payload bytes under the current codec, and
tier movement is a codec transition that never touches logical content.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.cluster.blockmanager import BlockManager
from repro.cluster.blocks import Block, BlockLocation
from repro.config import ClusterConfig, DiskConfig, MiB
from repro.metrics.collector import MetricsCollector, TaskMetrics
from repro.storage import columnar as columnar_module
from repro.storage.backend import ColumnarBackend
from repro.storage.columnar import DISK_CODEC, MEMORY_CODEC, ColumnarBatch


# -- eligibility matrix -------------------------------------------------


@pytest.mark.parametrize(
    "records",
    [
        [1, 2, 3, -5],
        [1.5, 2.5, -0.0],
        [True, False, True],
        [(1, 2.0), (3, 4.0)],
        [(1,), (2,)],
        [(1, 2.0, True, -7), (0, 0.5, False, 9)],
    ],
)
def test_analyzable_records_encode(records):
    batch = ColumnarBatch.from_records(records)
    assert batch is not None
    assert list(batch) == records


@pytest.mark.parametrize(
    "records",
    [
        [],  # nothing to type-analyze
        ["a", "b"],  # unsupported scalar type
        [None, None],
        [1, 2.0],  # mixed int/float column
        [1, True],  # bool is an int subclass but must not coerce
        [(1, 2), (1,)],  # ragged arity
        [(1, 2), [1, 2]],  # list record among tuples
        [(1, "x")],  # unsupported field type
        [(1, (2, 3))],  # nested tuple field
        [2**63, 1],  # outside int64
        [(2**64, 1.0)],
        [{"k": 1}],
        [tuple(range(17))] * 2,  # arity above MAX_ARITY
    ],
)
def test_non_analyzable_records_return_none(records):
    assert ColumnarBatch.from_records(records) is None


# -- sequence fidelity --------------------------------------------------


def test_round_trip_preserves_python_types():
    records = [(7, 2.5, True), (-3, 0.0, False)]
    batch = ColumnarBatch.from_records(records)
    out = list(batch)
    assert out == records
    for rec in out:
        assert type(rec) is tuple
        assert [type(v) for v in rec] == [int, float, bool]


def test_len_getitem_slice_negative_index():
    records = [(i, float(i) * 0.5) for i in range(10)]
    with mock.patch.object(columnar_module, "CHUNK_ROWS", 3):
        batch = ColumnarBatch.from_records(records)
    assert len(batch) == 10
    assert batch.num_chunks == 4
    assert batch[0] == records[0]
    assert batch[7] == records[7]  # crosses chunk boundaries
    assert batch[-1] == records[-1]
    assert batch[2:5] == records[2:5]
    with pytest.raises(IndexError):
        batch[10]
    with pytest.raises(IndexError):
        batch[-11]


def test_scalar_layout_items_are_plain_python():
    batch = ColumnarBatch.from_records([1, 2, 3])
    assert batch[1] == 2
    assert type(batch[1]) is int
    assert list(batch) == [1, 2, 3]
    assert all(type(v) is int for v in batch)


def test_int_key_column():
    batch = ColumnarBatch.from_records([(4, 1.0)])
    assert batch is not None
    keys = batch.int_key_column()
    assert keys is not None and keys.tolist() == [4]
    float_keyed = ColumnarBatch.from_records([(1.5, 2)])
    assert float_keyed.int_key_column() is None
    scalar = ColumnarBatch.from_records([1, 2])
    assert scalar.int_key_column() is None


def test_from_columns_validation():
    good = ColumnarBatch.from_columns(
        [np.arange(4, dtype=np.int64), np.ones(4, dtype=np.float64)], arity=2
    )
    assert list(good) == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]
    with pytest.raises(ValueError):
        ColumnarBatch.from_columns([np.arange(4, dtype=np.int32)], arity=None)
    with pytest.raises(ValueError):
        ColumnarBatch.from_columns([np.arange(4, dtype=np.int64)], arity=2)


# -- tier codecs + nbytes -----------------------------------------------


@pytest.mark.parametrize("codec", [MEMORY_CODEC, DISK_CODEC])
def test_codec_round_trip_is_lossless(codec):
    for arr in (
        np.arange(100, dtype=np.int64) - 50,
        np.linspace(-1.0, 1.0, 37),
        np.array([True, False] * 9),
        np.empty(0, dtype=np.float64),
    ):
        batch = ColumnarBatch.from_columns([arr], arity=None)
        batch.transcode(codec)
        assert batch.codec_name == codec
        (back,) = batch.columns()
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)
        assert batch.nbytes >= 0


def test_null_codec_nbytes_grows_with_rows():
    small = ColumnarBatch.from_records([(i, 0.0) for i in range(10)])
    big = ColumnarBatch.from_records([(i, 0.0) for i in range(1000)])
    assert small.nbytes == 10 * (8 + 8)
    assert big.nbytes == 1000 * (8 + 8)


def test_zlib_compresses_constant_columns():
    records = [(1, 0.0)] * 4096
    raw = ColumnarBatch.from_records(records)
    packed = ColumnarBatch.from_records(records)
    packed.transcode(DISK_CODEC)
    assert packed.nbytes > 0
    assert packed.nbytes < raw.nbytes
    assert list(packed) == records


def test_transcode_round_trip_in_place():
    records = [(i % 7, float(i)) for i in range(300)]
    with mock.patch.object(columnar_module, "CHUNK_ROWS", 64):
        batch = ColumnarBatch.from_records(records)
    assert batch.num_chunks == 5
    assert batch.codec_name == "none"
    assert batch.transcode("zlib") is True
    assert batch.codec_name == "zlib"
    assert list(batch) == records  # decode-on-iterate, content untouched
    assert batch.transcode("zlib") is False  # no-op transition
    assert batch.transcode("none") is True
    assert list(batch) == records
    assert batch.nbytes == 300 * 16
    with pytest.raises(ValueError):
        batch.transcode("snappy")


# -- backend + tier transitions ----------------------------------------


class _FakeRDD:
    size_weigher = None
    rdd_id = 1


def test_backend_encodes_analyzable_and_counts():
    backend = ColumnarBackend()
    metrics = MetricsCollector()
    out = backend.encode_for_cache(_FakeRDD(), [(1, 2.0), (3, 4.0)], metrics)
    assert isinstance(out, ColumnarBatch)
    assert metrics.columnar_batches_encoded == 1

    strings = backend.encode_for_cache(_FakeRDD(), ["a", "b"], metrics)
    assert strings == ["a", "b"]  # unchanged, fallback recorded
    assert metrics.columnar_encode_rejected == 1


def test_backend_rejection_memo_skips_reanalysis():
    backend = ColumnarBackend()
    metrics = MetricsCollector()
    rdd = _FakeRDD()
    backend.encode_for_cache(rdd, ["a"], metrics)
    backend.encode_for_cache(rdd, ["b"], metrics)
    assert metrics.columnar_encode_rejected == 1  # second call memo-skipped


def test_spill_and_promote_are_codec_transitions():
    config = ClusterConfig(
        num_executors=1,
        slots_per_executor=1,
        memory_store_bytes=10 * MiB,
        disk=DiskConfig(capacity_bytes=100 * MiB),
    )
    metrics = MetricsCollector()
    bm = BlockManager(0, config, metrics)

    records = [(i % 3, 1.0) for i in range(2048)]
    batch = ColumnarBatch.from_records(records)
    block = Block(block_id=(5, 0), data=batch, size_bytes=1 * MiB)
    bm.insert_memory(block)

    tm = TaskMetrics()
    bm.spill_to_disk(block.block_id, tm)
    assert bm.location_of(block.block_id) is BlockLocation.DISK
    assert batch.codec_name == "zlib"
    assert metrics.codec_transitions == 1

    read = bm.read_from_disk(block.block_id, tm)
    assert read.data.codec_name == "zlib"  # stays compressed until iterated
    assert list(read.data) == records

    promoted = bm.promote_to_memory(block.block_id)
    assert promoted is block
    assert batch.codec_name == "none"
    assert metrics.codec_transitions == 2
    # size accounting used the admission-time modeled size throughout
    assert block.size_bytes == 1 * MiB


def test_list_blocks_never_transcode():
    config = ClusterConfig(
        num_executors=1,
        slots_per_executor=1,
        memory_store_bytes=10 * MiB,
        disk=DiskConfig(capacity_bytes=100 * MiB),
    )
    metrics = MetricsCollector()
    bm = BlockManager(0, config, metrics)
    block = Block(block_id=(1, 0), data=["plain", "list"], size_bytes=1 * MiB)
    bm.insert_memory(block)
    bm.spill_to_disk(block.block_id, TaskMetrics())
    assert metrics.codec_transitions == 0
    assert bm.disk.get(block.block_id).data == ["plain", "list"]
