"""ILP solver: optimality, feasibility, state assignment."""

import itertools

import pytest

from repro.core.ilp import IlpItem, solve_partition_states
from repro.errors import SolverError


def brute_force_best(items, capacity):
    """Exhaustive optimum of the memory knapsack (saved cost)."""
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum(i.size_bytes for i in combo) <= capacity:
                best = max(best, sum(i.mem_saving for i in combo))
    return best


def test_exact_matches_brute_force():
    items = [
        IlpItem(key=i, size_bytes=s, cost_d=d, cost_r=r, weight=w)
        for i, (s, d, r, w) in enumerate(
            [(5, 3, 9, 1), (4, 8, 2, 2), (6, 1, 1, 1), (3, 7, 7, 1), (8, 2, 6, 3), (2, 4, 4, 1)]
        )
    ]
    capacity = 12.0
    solution = solve_partition_states(items, capacity)
    assert solution.optimal
    saved = sum(i.mem_saving for i in items if solution.states[i.key] == "mem")
    assert saved == pytest.approx(brute_force_best(items, capacity))


def test_memory_constraint_respected():
    items = [IlpItem(key=i, size_bytes=10, cost_d=1, cost_r=1) for i in range(10)]
    solution = solve_partition_states(items, 35)
    in_mem = sum(10 for i in items if solution.states[i.key] == "mem")
    assert in_mem <= 35


def test_off_memory_state_follows_cheaper_recovery():
    cheap_disk = IlpItem(key="d", size_bytes=10, cost_d=1.0, cost_r=9.0)
    cheap_recompute = IlpItem(key="r", size_bytes=10, cost_d=9.0, cost_r=1.0)
    solution = solve_partition_states([cheap_disk, cheap_recompute], 0.0)
    assert solution.states["d"] == "disk"
    assert solution.states["r"] == "gone"


def test_greedy_backend_feasible():
    items = [IlpItem(key=i, size_bytes=7, cost_d=2, cost_r=3) for i in range(8)]
    # A zero node budget stops the search at the greedy incumbent.
    solution = solve_partition_states(items, 20, node_budget=0)
    assert not solution.optimal
    used = sum(7 for i in items if solution.states[i.key] == "mem")
    assert used <= 20


def test_zero_saving_items_left_out_of_memory():
    item = IlpItem(key="z", size_bytes=5, cost_d=0.0, cost_r=0.0)
    solution = solve_partition_states([item], 100)
    assert solution.states["z"] != "mem"


def test_objective_counts_residual_costs():
    items = [IlpItem(key="a", size_bytes=10, cost_d=2.0, cost_r=5.0, weight=2.0)]
    solution = solve_partition_states(items, 0.0)
    assert solution.objective == pytest.approx(4.0)  # disk state, 2.0 * weight


def test_validation_errors():
    with pytest.raises(SolverError):
        solve_partition_states([IlpItem(key=0, size_bytes=0, cost_d=1, cost_r=1)], 10)
    with pytest.raises(SolverError):
        solve_partition_states([IlpItem(key=0, size_bytes=1, cost_d=-1, cost_r=1)], 10)
    with pytest.raises(SolverError):
        solve_partition_states([], -1)


def test_empty_items():
    solution = solve_partition_states([], 10)
    assert solution.states == {}
    assert solution.objective == 0.0


def test_node_budget_keeps_solution_feasible():
    """A tiny node budget may truncate the search but never feasibility."""
    items = [
        IlpItem(key=i, size_bytes=3 + (i % 5), cost_d=float(i % 7) + 0.5, cost_r=float(i % 3) + 1)
        for i in range(40)
    ]
    solution = solve_partition_states(items, 60, node_budget=3)
    used = sum(it.size_bytes for it in items if solution.states[it.key] == "mem")
    assert used <= 60
    assert set(solution.states.values()) <= {"mem", "disk", "gone"}
    assert len(solution.states) == len(items)
