"""Property tests: partitioners, and the bulk bucketing built on them."""

from hypothesis import given, settings, strategies as st

from repro.cluster.shuffle import ShuffleManager
from repro.dataflow.fusion import BULK_MIN_RECORDS
from repro.dataflow.partitioner import HashPartitioner, RangePartitioner

keys = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=20),
    st.tuples(st.integers(), st.text(max_size=5)),
)


@given(key=keys, width=st.integers(min_value=1, max_value=64))
def test_hash_partition_in_range(key, width):
    assert 0 <= HashPartitioner(width).partition_for(key) < width


@given(key=keys, width=st.integers(min_value=1, max_value=64))
def test_hash_partition_deterministic(key, width):
    p = HashPartitioner(width)
    assert p.partition_for(key) == p.partition_for(key)


@given(
    width=st.integers(min_value=1, max_value=16),
    space=st.integers(min_value=1, max_value=10_000),
    key=st.integers(min_value=-100, max_value=20_000),
)
def test_range_partition_in_range_and_monotone(width, space, key):
    p = RangePartitioner(width, key_space=space)
    value = p.partition_for(key)
    assert 0 <= value < width
    assert p.partition_for(key + 1) >= value


@settings(max_examples=25)
@given(
    width=st.integers(min_value=1, max_value=8),
    space=st.integers(min_value=8, max_value=512),
)
def test_range_partitions_cover_all_indices(width, space):
    p = RangePartitioner(width, key_space=space)
    used = {p.partition_for(k) for k in range(space)}
    assert used == set(range(width))


# ----------------------------------------------------------------------
# Bulk shuffle bucketing vs. the per-record loop it stands in for
# ----------------------------------------------------------------------
_int_keys = st.integers(min_value=-(2**40), max_value=2**40)
_key_columns = st.one_of(
    st.lists(_int_keys, min_size=64, max_size=200),  # negatives included
    st.lists(_int_keys, max_size=63),  # short: below BULK_MIN_RECORDS
    st.lists(st.integers(min_value=0, max_value=40), min_size=64, max_size=200),
    st.lists(st.booleans(), min_size=64, max_size=100),
    st.lists(st.one_of(_int_keys, st.booleans()), min_size=64, max_size=100),
    st.lists(st.integers(min_value=2**62, max_value=2**70), min_size=64, max_size=80),
)
_hash_only_columns = st.lists(
    st.one_of(_int_keys, st.floats(allow_nan=False), st.text(max_size=4)),
    min_size=64, max_size=100,
)


def _per_record_buckets(records, partitioner):
    buckets: dict[int, list] = {}
    for kv in records:
        buckets.setdefault(partitioner.partition_for(kv[0]), []).append(kv)
    return buckets


def _check_bulk_matches_loop(keys, partitioner):
    records = [(k, i) for i, k in enumerate(keys)]
    bulk = ShuffleManager._bucket_bulk(records, partitioner)
    vectorizable = (
        len(keys) >= BULK_MIN_RECORDS
        and all(type(k) is int and -(2**63) <= k < 2**63 for k in keys)
    )
    assert (bulk is not None) == vectorizable
    if bulk is not None:
        # dict order is bucket-creation order, list order is record order
        assert list(bulk.items()) == list(_per_record_buckets(records, partitioner).items())


@given(keys=_key_columns, width=st.integers(min_value=1, max_value=16))
def test_bulk_bucketing_matches_loop_under_hash_partitioner(keys, width):
    _check_bulk_matches_loop(keys, HashPartitioner(width))


@given(keys=_hash_only_columns, width=st.integers(min_value=1, max_value=16))
def test_bulk_bucketing_declines_mixed_type_columns(keys, width):
    _check_bulk_matches_loop(keys, HashPartitioner(width))


@given(
    keys=_key_columns,
    width=st.integers(min_value=1, max_value=16),
    space=st.integers(min_value=1, max_value=10_000),
)
def test_bulk_bucketing_matches_loop_under_range_partitioner(keys, width, space):
    _check_bulk_matches_loop(keys, RangePartitioner(width, key_space=space))
