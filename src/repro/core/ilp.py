"""The optimal-partition-state ILP (paper section 5.5, Eq. 5-6).

Decision variables per partition: ``m + d + u = 1`` (memory / disk /
unpersisted).  Objective: minimize the weighted sum of potential recovery
costs of everything not kept in memory,

    minimize  sum_i (d_i * cost_d_i + u_i * cost_r_i) * weight_i
    s.t.      sum_i size_i * m_i <= memory_capacity

With costs fixed per solve (the decision layer refreshes ``cost_r`` between
refinement rounds), choosing the memory set reduces to a 0/1 knapsack that
*saves* ``min(cost_d, cost_r) * weight`` per cached partition, after which
each non-memory partition independently takes the cheaper of disk and
recomputation.  The paper uses Gurobi; this module provides an exact
branch-and-bound solver with the classic fractional-relaxation bound (which
reproduces the optimum at the paper's problem sizes — a couple of jobs'
partitions).  Its starting incumbent is the density-greedy answer, which
it returns when the node budget runs out, honoring the < 5 s budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Literal

from ..errors import SolverError

PartitionState = Literal["mem", "disk", "gone"]


@dataclass(frozen=True)
class IlpItem:
    """One partition's inputs to the optimization."""

    key: Hashable
    size_bytes: float
    cost_d: float
    cost_r: float
    weight: float = 1.0

    @property
    def mem_saving(self) -> float:
        """Objective saved by keeping this partition in memory."""
        return min(self.cost_d, self.cost_r) * self.weight

    @property
    def off_memory_state(self) -> PartitionState:
        """The cheaper non-memory state."""
        return "disk" if self.cost_d < self.cost_r else "gone"


@dataclass
class IlpSolution:
    """Solver output: a state per item plus objective accounting."""

    states: dict[Hashable, PartitionState]
    objective: float  # residual weighted potential cost
    optimal: bool  # exact optimum vs greedy/budget-truncated
    nodes_explored: int = 0


def solve_partition_states(
    items: list[IlpItem],
    memory_capacity: float,
    node_budget: int = 200_000,
    observer=None,
) -> IlpSolution:
    """Solve Eq. 5-6 for the given partitions.

    Runs branch-and-bound from the density-greedy incumbent; past
    ``node_budget`` branch nodes it returns the best set found so far
    (``optimal=False``), so ``node_budget=0`` yields the greedy answer.

    ``observer``, when given, is called as ``observer(items, solution)``
    right before returning — the decision audit log hooks in here.  It
    must not mutate either argument.
    """
    if memory_capacity < 0:
        raise SolverError("memory capacity must be non-negative")
    for item in items:
        if item.size_bytes <= 0:
            raise SolverError(f"item {item.key!r} has non-positive size")
        if item.cost_d < 0 or item.cost_r < 0 or item.weight < 0:
            raise SolverError(f"item {item.key!r} has negative cost/weight")

    # ``mem_saving`` is recomputed per property access; the solvers consult
    # it O(n log n) to O(nodes * n) times, so resolve each item's saving
    # exactly once per solve (keys are unique block ids).
    savings = {item.key: item.mem_saving for item in items}

    chosen, nodes, optimal = _knapsack_branch_and_bound(
        items, memory_capacity, node_budget, savings
    )

    # Each partition left out of memory takes the cheaper of disk and
    # recomputation; disk is unbounded.  The disk residual is summed on its
    # own and added last, which fixes the float rounding of the objective.
    states: dict[Hashable, PartitionState] = {}
    residual = disk_residual = 0.0
    for item in items:
        if item.key in chosen:
            states[item.key] = "mem"
        elif item.off_memory_state == "disk":
            states[item.key] = "disk"
            disk_residual += item.cost_d * item.weight
        else:
            states[item.key] = "gone"
            residual += item.cost_r * item.weight
    residual += disk_residual

    solution = IlpSolution(
        states=states, objective=residual, optimal=optimal, nodes_explored=nodes
    )
    if observer is not None:
        observer(items, solution)
    return solution


# ----------------------------------------------------------------------
# Knapsack machinery (maximize saved cost under the memory constraint)
# ----------------------------------------------------------------------
def _density_order(items: list[IlpItem], savings: dict[Hashable, float]) -> list[IlpItem]:
    return sorted(
        items,
        key=lambda it: (-(savings[it.key] / it.size_bytes), it.size_bytes, str(it.key)),
    )


def _knapsack_greedy(
    items: list[IlpItem], capacity: float, savings: dict[Hashable, float]
) -> set[Hashable]:
    chosen: set[Hashable] = set()
    used = 0.0
    for item in _density_order(items, savings):
        if savings[item.key] <= 0:
            continue
        if used + item.size_bytes <= capacity:
            chosen.add(item.key)
            used += item.size_bytes
    return chosen


def _knapsack_branch_and_bound(
    items: list[IlpItem],
    capacity: float,
    node_budget: int,
    savings: dict[Hashable, float],
) -> tuple[set[Hashable], int, bool]:
    """Exact 0/1 knapsack via DFS branch-and-bound with fractional bounds.

    The per-node fractional (LP-relaxation) bound dominates solver time, so
    it is evaluated in O(log n) from prefix sums of the density-ordered
    sizes/savings: bisect to the break item, take the whole-item prefix
    difference, add the fractional tail.  The bound only gates pruning —
    the solver stays exact — but node counts differ from the sequential
    O(n) bound by ULP-level prefix-sum rounding.
    """
    ordered = [it for it in _density_order(items, savings) if savings[it.key] > 0]
    n = len(ordered)
    sizes = [it.size_bytes for it in ordered]
    saves = [savings[it.key] for it in ordered]
    keys = [it.key for it in ordered]
    size_prefix = [0.0] * (n + 1)
    save_prefix = [0.0] * (n + 1)
    acc_size = acc_save = 0.0
    for i in range(n):
        acc_size += sizes[i]
        acc_save += saves[i]
        size_prefix[i + 1] = acc_size
        save_prefix[i + 1] = acc_save
    best_set = _knapsack_greedy(items, capacity, savings)
    # Incumbent value summed in items order (float addition is not
    # associative; this keeps the pruning threshold reproducible).
    best_value = sum(savings[it.key] for it in items if it.key in best_set)
    # The root pop is bookkeeping, not a branch decision: start at -1 so
    # the budget buys ``node_budget`` actual branch nodes.
    nodes = -1
    truncated = False

    # Iterative DFS: (index, used_capacity, value, chosen_chain).  The
    # chosen set rides along as a linked list (key, parent) so pushing a
    # node is O(1) instead of copying a tuple per level.
    best_chain: tuple | None = None
    improved = False
    stack: list[tuple[int, float, float, tuple | None]] = [(0, 0.0, 0.0, None)]
    while stack:
        idx, used, value, chain = stack.pop()
        nodes += 1
        if nodes > node_budget:
            truncated = True
            break
        if value > best_value:
            best_value = value
            best_chain = chain
            improved = True
        if idx >= n:
            continue
        # Fractional bound from ``idx`` with ``capacity - used`` left:
        # whole items idx..j-1 fit, item j (if any) enters fractionally.
        remaining = capacity - used
        base = size_prefix[idx]
        j = bisect_right(size_prefix, base + remaining, idx) - 1
        bound = save_prefix[j] - save_prefix[idx]
        if j < n:
            bound += saves[j] * ((remaining - (size_prefix[j] - base)) / sizes[j])
        if value + bound <= best_value + 1e-12:
            continue  # cannot beat the incumbent
        size = sizes[idx]
        # Explore "take" after "skip" (stack pops take first -> greedy-like
        # dive that finds strong incumbents early).
        stack.append((idx + 1, used, value, chain))
        if used + size <= capacity:
            stack.append((idx + 1, used + size, value + saves[idx], (keys[idx], chain)))
    if improved:
        best_set = set()
        while best_chain is not None:
            best_set.add(best_chain[0])
            best_chain = best_chain[1]
    return best_set, nodes, not truncated
