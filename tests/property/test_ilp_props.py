"""Property tests: the ILP solver is always feasible and exact-beats-greedy."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.ilp import IlpItem, solve_partition_states

items_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=50.0),   # size
        st.floats(min_value=0.0, max_value=20.0),   # cost_d
        st.floats(min_value=0.0, max_value=20.0),   # cost_r
        st.floats(min_value=0.0, max_value=4.0),    # weight
    ),
    min_size=0,
    max_size=10,
)


def build(items_spec):
    return [
        IlpItem(key=i, size_bytes=s, cost_d=d, cost_r=r, weight=w)
        for i, (s, d, r, w) in enumerate(items_spec)
    ]


@settings(max_examples=60)
@given(spec=items_strategy, capacity=st.floats(min_value=0.0, max_value=200.0))
def test_memory_constraint_always_respected(spec, capacity):
    items = build(spec)
    solution = solve_partition_states(items, capacity)
    used = sum(i.size_bytes for i in items if solution.states[i.key] == "mem")
    assert used <= capacity + 1e-9
    assert set(solution.states) == {i.key for i in items}


@settings(max_examples=40)
@given(spec=items_strategy, capacity=st.floats(min_value=0.0, max_value=120.0))
def test_exact_at_least_as_good_as_greedy(spec, capacity):
    items = build(spec)
    exact = solve_partition_states(items, capacity)
    greedy = solve_partition_states(items, capacity, node_budget=0)
    assert exact.objective <= greedy.objective + 1e-9


@settings(max_examples=30)
@given(
    spec=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=20.0),
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.5, max_value=2.0),
        ),
        min_size=1,
        max_size=8,
    ),
    capacity=st.floats(min_value=0.0, max_value=80.0),
)
def test_exact_matches_brute_force(spec, capacity):
    items = build(spec)
    solution = solve_partition_states(items, capacity)
    saved = sum(i.mem_saving for i in items if solution.states[i.key] == "mem")
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum(i.size_bytes for i in combo) <= capacity:
                best = max(best, sum(i.mem_saving for i in combo))
    assert saved >= best - 1e-9
