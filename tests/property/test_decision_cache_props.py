"""Property tests: the decision structures match a from-scratch derivation.

The victim index must return the *exact* victim sequence the reference
filter-and-sort (``conftest.reference_select``) produces over the memory
store it reads, for every ordering mode (value density, cost_d, LRU)
under arbitrary put/remove/re-key interleavings — with and without the
quota fairness tier — and every read of the epoch cost memo must equal a
fresh-memo ``CostModel`` compute against the same snapshot.
"""

from types import SimpleNamespace

from conftest import reference_select
from hypothesis import given, settings, strategies as st

from repro.cluster.blocks import Block
from repro.cluster.stores import BlockStore
from repro.config import DiskConfig, MiB
from repro.core.cost_lineage import CostLineage
from repro.core.cost_model import CostModel
from repro.core.decision_cache import DecisionCostCache, VictimIndex


# ----------------------------------------------------------------------
# Victim index vs. the reference sort
# ----------------------------------------------------------------------
def _make_block(
    rdd_id: int, split: int, size: float, seq: int, tenant: str | None = None
) -> Block:
    return Block(
        block_id=(rdd_id, split),
        data=[],
        size_bytes=size,
        policy_data={"seq": seq},
        tenant=tenant,
    )


def _store() -> BlockStore:
    return BlockStore(1e9, "memory")


# Each op is (kind, block_slot, payload); slots address a small universe of
# block ids so puts/removes/re-keys collide in interesting ways.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "rekey", "select"]),
        st.integers(min_value=0, max_value=11),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _run_mode(mode: str, ops) -> None:
    """Drive a store-backed index through one op sequence, comparing every
    selection with the reference over the store.  Key semantics per mode:

    - ``blaze``:     key = value / size (value mutable)
    - ``costaware``: key = cost_d (mutable)
    - ``autocache``: key = last_access (touch-to-front)
    """
    universe = [(rdd, split) for rdd in range(4) for split in range(3)]
    values: dict = {}

    def key_fn(block):
        if mode == "autocache":
            return block.last_access
        if mode == "costaware":
            return values[block.block_id]
        return values[block.block_id] / block.size_bytes

    store = _store()
    index = VictimIndex(key_fn, store)
    seq, clock = 0, 0.0

    for kind, slot, payload in ops:
        bid = universe[slot]
        if kind == "add":
            if bid in store:
                continue
            seq += 1
            block = _make_block(bid[0], bid[1], size=10.0 + slot, seq=seq)
            values[bid] = payload
            store.put(block)
            clock += 1.0
            block.touch(clock)  # the driver touches right after insertion
        elif kind == "remove":
            if bid in store:
                store.remove(bid)
        elif kind == "rekey":
            if bid not in store:
                continue
            if mode == "autocache":
                clock += 1.0
                store.get(bid).touch(clock)
            else:
                values[bid] = payload
        else:  # select
            needed = payload + 1.0
            got, _scanned = index.select(needed, incoming_rdd_id=slot % 4)
            want = reference_select(store.blocks(), key_fn, needed, slot % 4)
            assert got == want, (mode, kind, slot, payload)

    got, _ = index.select(5.0, incoming_rdd_id=-1)
    assert got == reference_select(store.blocks(), key_fn, 5.0, -1)


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_index_matches_naive_blaze_ordering(ops):
    _run_mode("blaze", ops)


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_index_matches_naive_costaware_ordering(ops):
    _run_mode("costaware", ops)


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_index_matches_naive_lru_ordering(ops):
    _run_mode("autocache", ops)


# Quota mode: the fairness tier leads the order but cannot live in the
# key (it depends on the inserter and on live usage), so the index
# partitions its sorted walk per admission.  Keys come from a small pool
# so ties fall through to (seq, block_id); removals and re-keys between
# selections must not leave anything behind.
@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # order key (ties likely)
            st.floats(min_value=1.0, max_value=40.0),  # size
            st.sampled_from([None, "a", "b", "c"]),  # owning tenant
        ),
        min_size=0,
        max_size=12,
    ),
    churn=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.integers(0, 4)),
        max_size=6,
    ),
    other_tiers=st.tuples(*[st.sampled_from([0, 2, None])] * 2),
    needed=st.floats(min_value=0.0, max_value=120.0),
    own_need=st.floats(min_value=0.0, max_value=60.0),
    incoming_rdd_id=st.integers(min_value=0, max_value=3),
)
def test_tiered_walk_matches_reference_with_tier_key(
    specs, churn, other_tiers, needed, own_need, incoming_rdd_id
):
    keys: dict = {}
    store = _store()
    index = VictimIndex(lambda b: keys[b.block_id], store)
    for slot, (key, size, tenant) in enumerate(specs):
        block = _make_block(slot % 4, slot // 4, size, seq=slot, tenant=tenant)
        keys[block.block_id] = float(key)
        store.put(block)
    for slot, new_key in churn:
        bid = (slot % 4, slot // 4)
        if bid not in store:
            continue
        if new_key == 0:
            store.remove(bid)
        else:
            keys[bid] = float(new_key)

    tiers = {"a": 1, None: 1, "b": other_tiers[0], "c": other_tiers[1]}
    terms = (lambda b: tiers[b.tenant], "a", own_need)
    got, scanned = index.select_tiered(needed, incoming_rdd_id, *terms)
    want = reference_select(
        store.blocks(), lambda b: keys[b.block_id], needed, incoming_rdd_id, *terms
    )
    assert got == want
    assert scanned == sum(b.rdd_id != incoming_rdd_id for b in store.blocks())


# ----------------------------------------------------------------------
# The epoch memo
# ----------------------------------------------------------------------
def _counters() -> SimpleNamespace:
    return SimpleNamespace(cost_memo_hits=0, cost_memo_misses=0)


def _chain_cache(splits: int = 2, observed: bool = True):
    """Chain 0 -> 1 -> 2 with mutable residency (and, unless ``observed``,
    only split 0 observed, so split 1 leans on regression estimates)."""
    lin = CostLineage()
    lin.register_rdd(0, (), splits)
    lin.register_rdd(1, (0,), splits)
    lin.register_rdd(2, (1,), splits)
    for rdd in range(3):
        for split in range(splits if observed else 1):
            lin.observe_partition(
                rdd, split, size_bytes=(rdd + 1) * 10 * MiB, compute_seconds=float(rdd + 1)
            )
    residency: dict = {}

    def state_fn(rdd_id, split):
        return residency.get((rdd_id, split), "gone")

    cache = DecisionCostCache(lin, CostModel(lin, DiskConfig()), state_fn, _counters())
    return lin, cache, residency


def test_memo_serves_hits_until_touch():
    _lin, cache, residency = _chain_cache()
    counters = cache.collector
    first = cache.cost_r(2, 0)
    assert cache.cost_r(2, 0) == first
    assert (counters.cost_memo_misses, counters.cost_memo_hits) == (1, 1)

    # Residency of an ancestor partition changes and the epoch ends: the
    # read recomputes and sees the new state.
    residency[(1, 0)] = "mem"
    cache.touch()
    assert cache.cost_r(2, 0) < first
    assert (counters.cost_memo_misses, counters.cost_memo_hits) == (2, 1)


def test_lineage_version_change_invalidates_everything():
    lin, cache, _residency = _chain_cache()
    cache.cost_r(2, 0)
    memo = cache.scratch()
    lin.register_rdd(3, (2,), 2)  # structure change bumps lineage.version
    assert cache.scratch() is not memo and cache.scratch() == {}
    cache.cost_r(2, 0)
    assert cache.collector.cost_memo_misses == 2


# Every read in any epoch equals a fresh-memo compute, whatever mix of
# residency changes and observations (of observed and estimated
# partitions alike) ended the epochs before it.
@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["state", "observe", "read"]),
            st.integers(min_value=0, max_value=2),  # dataset
            st.integers(min_value=0, max_value=1),  # split
            st.sampled_from(["mem", "disk", "gone"]),
            st.floats(min_value=0.5, max_value=50.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_epoch_reads_equal_fresh_computes(ops):
    lin, cache, residency = _chain_cache(observed=False)
    model = cache.cost_model
    for kind, rdd, split, state, value in ops:
        if kind == "state":
            residency[(rdd, split)] = state
            cache.touch()
        elif kind == "observe":
            lin.observe_partition(rdd, split, size_bytes=value * MiB, compute_seconds=value)
            cache.touch()
        else:
            fn = cache.state_fn
            assert cache.cost_r(rdd, split) == model.cost_r(rdd, split, fn, {})
            assert cache.potential_cost(rdd, split) == model.potential_cost(
                rdd, split, fn, {}
            )
            assert cache.preferred_state(rdd, split) == model.preferred_eviction_state(
                rdd, split, fn, {}
            )
