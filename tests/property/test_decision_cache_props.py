"""Property tests: the decision structures match a from-scratch derivation.

The victim index must return the *exact* victim sequence the reference
filter-and-sort (``conftest.reference_select``) produces for every
ordering mode (value density, cost_d, LRU) under arbitrary
add/remove/re-key interleavings — with and without the quota fairness
tier — and the epoch cost cache must serve hits only while its
invalidation contract says the cached value is still current.
"""

from conftest import reference_select
from hypothesis import given, settings, strategies as st

from repro.cluster.blocks import Block
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


# Each op is (kind, block_slot, payload); slots address a small universe of
# block ids so adds/removes/re-keys collide in interesting ways.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "rekey", "rekey_unstable", "bump_version", "select"]),
        st.integers(min_value=0, max_value=11),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _run_mode(mode: str, ops) -> None:
    """Drive index + reference through one op sequence, comparing
    every selection.  Key semantics per mode:

    - ``blaze``:     key = value / size (value mutable, stability varies)
    - ``costaware``: key = cost_d (mutable, stability varies)
    - ``autocache``: key = last_access (always stable, touch-to-front)
    """
    universe = [(rdd, split) for rdd in range(4) for split in range(3)]
    values: dict = {}
    stables: dict = {}

    def key_fn(block):
        bid = block.block_id
        if mode == "autocache":
            return block.last_access, True
        if mode == "costaware":
            return values[bid], stables[bid]
        return values[bid] / block.size_bytes, stables[bid]

    index = VictimIndex(key_fn)
    live: dict = {}
    version, touch_count, seq, clock = 0, 0, 0, 0.0

    for kind, slot, payload in ops:
        bid = universe[slot]
        if kind == "add":
            if bid in live:
                continue
            seq += 1
            block = _make_block(bid[0], bid[1], size=10.0 + slot, seq=seq)
            values[bid] = payload
            stables[bid] = slot % 2 == 0
            live[bid] = block
            index.add(block)
            clock += 1.0
            block.touch(clock)  # the driver touches right after insertion
            touch_count += 1  # residency changed
        elif kind == "remove":
            if live.pop(bid, None) is None:
                continue
            index.remove(bid)
            touch_count += 1
        elif kind == "rekey":
            if bid not in live:
                continue
            if mode == "autocache":
                clock += 1.0
                live[bid].touch(clock)
            else:
                values[bid] = payload
            index.mark_block(bid)
            touch_count += 1
        elif kind == "rekey_unstable":
            # Contract: values that consulted an estimate may shift on ANY
            # touch without a per-block mark; ensure_current must re-stale
            # them off the touch counter alone.
            if mode == "autocache" or bid not in live or stables.get(bid, True):
                continue
            values[bid] = payload
            touch_count += 1
        elif kind == "bump_version":
            version += 1
        else:  # select
            needed = payload + 1.0
            index.ensure_current(version, touch_count)
            got, _scanned = index.select(needed, incoming_rdd_id=slot % 4)
            want = reference_select(
                live.values(), lambda b: key_fn(b)[0], needed, slot % 4
            )
            assert got == want, (mode, kind, slot, payload)

    index.ensure_current(version, touch_count)
    got, _ = index.select(5.0, incoming_rdd_id=-1)
    want = reference_select(live.values(), lambda b: key_fn(b)[0], 5.0, -1)
    assert got == want


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
# stored key (it depends on the inserter and on live usage), so the index
# partitions its live walk per admission.  Keys come from a small pool so
# ties fall through to (seq, block_id); removals and re-keys leave
# tombstones the walk must skip.
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
    index = VictimIndex(lambda b: (keys[b.block_id], True))
    live: dict = {}
    for slot, (key, size, tenant) in enumerate(specs):
        block = _make_block(slot % 4, slot // 4, size, seq=slot, tenant=tenant)
        keys[block.block_id] = float(key)
        live[block.block_id] = block
        index.add(block)
    index.ensure_current(0, 0)
    for touch, (slot, new_key) in enumerate(churn, start=1):
        bid = (slot % 4, slot // 4)
        if bid not in live:
            continue
        if new_key == 0:
            index.remove(live.pop(bid).block_id)
        else:
            keys[bid] = float(new_key)
            index.mark_block(bid)
        index.ensure_current(0, touch)

    tiers = {"a": 1, None: 1, "b": other_tiers[0], "c": other_tiers[1]}
    terms = (lambda b: tiers[b.tenant], "a", own_need)
    got, scanned = index.select_tiered(needed, incoming_rdd_id, *terms)
    want = reference_select(
        live.values(), lambda b: keys[b.block_id], needed, incoming_rdd_id, *terms
    )
    assert got == want
    assert scanned == sum(b.rdd_id != incoming_rdd_id for b in live.values())


# ----------------------------------------------------------------------
# Epoch memo invalidation
# ----------------------------------------------------------------------
def _chain_cache(splits: int = 2):
    """Chain 0 -> 1 -> 2, all partitions observed, mutable residency."""
    lin = CostLineage()
    lin.register_rdd(0, (), splits)
    lin.register_rdd(1, (0,), splits)
    lin.register_rdd(2, (1,), splits)
    for rdd in range(3):
        for split in range(splits):
            lin.observe_partition(
                rdd, split, size_bytes=(rdd + 1) * 10 * MiB, compute_seconds=float(rdd + 1)
            )
    residency: dict = {}

    def state_fn(rdd_id, split):
        return residency.get((rdd_id, split), "gone")

    cache = DecisionCostCache(lin, CostModel(lin, DiskConfig()), state_fn)
    return lin, cache, residency


def test_memo_serves_hits_until_touch():
    lin, cache, residency = _chain_cache()
    first = cache.cost_r(2, 0)
    assert cache.cost_r(2, 0) == first  # second call is a pure memo hit
    assert (2, 0) in cache._cr

    # Residency of an ancestor partition changes: the dependent entry must
    # recompute and see the new state.
    residency[(1, 0)] = "mem"
    cache.touch(1, 0)
    assert cache.cost_r(2, 0) < first

    # The congruent partition of the *other* split never depended on
    # (1, 0); its entry must still validate.
    before = cache.cost_r(2, 1)
    residency[(1, 0)] = "gone"
    cache.touch(1, 0)
    assert cache.cost_r(2, 1) == before
    entry = cache._cr[(2, 1)]
    value, hit = cache._lookup(cache._cr, 2, 1)
    assert hit and value == entry[0]


def test_touch_invalidates_exactly_reachable_partitions():
    _lin, cache, _residency = _chain_cache()
    for rdd in range(3):
        for split in range(2):
            cache.cost_r(rdd, split)
    cache.touch(0, 1)
    # split 1 of every descendant is stale, split 0 everywhere still valid
    for rdd in range(3):
        assert cache._lookup(cache._cr, rdd, 0)[1]
        assert not cache._lookup(cache._cr, rdd, 1)[1]


lineage_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=30), max_size=3),
        st.sampled_from([0, 1, 2, 3, 4, 6, 8]),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(spec=lineage_strategy)
def test_affected_pairs_are_exactly_the_partitions_that_read_the_touched_one(spec):
    # Dataset i has parents drawn from 0..i-1 (duplicates allowed, as in
    # zip(a, a)) and a split count mixing equal, narrower and wider
    # children.  A count of 0 is a dataset whose count
    # the lineage does not know: the recursion treats it as one split,
    # and a touch may name a split past it.
    lin = CostLineage()
    for rdd_id, (picks, splits) in enumerate(spec):
        parents = tuple(p % rdd_id for p in picks) if rdd_id else ()
        lin.register_rdd(rdd_id, parents, splits)
    cache = DecisionCostCache(lin, None, None)

    def reads(rdd_id: int, split: int) -> set:
        """Every (dataset, split) the cost recursion of one partition visits."""
        seen = {(rdd_id, split)}
        stack = [(rdd_id, split)]
        while stack:
            r, s = stack.pop()
            for p in lin.parents_of(r):
                key = (p, s % max(lin.num_splits_of(p), 1))
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
        return seen

    everything = [(r, s) for r, (_p, n) in enumerate(spec) for s in range(max(n, 1))]
    closure = {key: reads(*key) for key in everything}
    for rdd_id, (_p, n) in enumerate(spec):
        for split in range(n + 2):
            key = (rdd_id, split)
            pairs = cache._affected_pairs(*key)
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == {key} | {
                other for other in everything if key in closure[other]
            }


def test_lineage_version_change_invalidates_everything():
    lin, cache, _residency = _chain_cache()
    cache.cost_r(2, 0)
    lin.register_rdd(3, (2,), 2)  # structure change bumps lineage.version
    assert not cache._lookup(cache._cr, 2, 0)[1]


def test_unobserved_estimates_are_volatile():
    lin = CostLineage()
    lin.register_rdd(0, (), 2)
    lin.register_rdd(1, (0,), 2)
    lin.observe_partition(0, 0, size_bytes=10 * MiB, compute_seconds=1.0)
    lin.observe_partition(1, 0, size_bytes=20 * MiB, compute_seconds=2.0)
    cache = DecisionCostCache(lin, CostModel(lin, DiskConfig()), lambda r, s: "gone")

    # (1, 1) is unobserved: its costs lean on estimates, so the entry is
    # stamped volatile and must die on a touch of an *unrelated* partition.
    cache.cost_r(1, 1)
    assert cache._cr[(1, 1)][3] is not None  # volatile stamp
    cache.touch(0, 0)
    assert not cache._lookup(cache._cr, 1, 1)[1]

    # The fully observed partition survives the same touch of a partition
    # outside its dependency cone.
    cache.cost_r(1, 0)
    assert cache._cr[(1, 0)][3] is None
    cache.touch(0, 1)
    assert cache._lookup(cache._cr, 1, 0)[1]
