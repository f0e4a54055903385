"""Per-epoch decision state: the cost memo and the victim order.

Blaze makes its admission, eviction and spill decisions from one cost
model at the moment a contested admission happens (paper §4.1/§4.2).
Every decision is derived from scratch against the current snapshot; the
two classes here only share work *within* one snapshot:

- :class:`DecisionCostCache` is one memo per decision epoch.  The epoch is
  ``(lineage.version, touch_count)``: the lineage version advances when a
  stream's position or events, or the dataset structure, change, and
  :meth:`DecisionCostCache.touch` is called whenever residency, an
  observed metric or the fleet changes.  Every cost read of one epoch
  shares the ``CostModel`` recursion memo, so a value read twice is
  computed once, and no value outlives the inputs it was computed from.
- :class:`VictimIndex` sorts the memory residents of one executor that an
  admission may displace by ``(order_key, seq, block_id)`` at each
  selection — the order a filter + sort over the store gives — and walks
  that order.

Snapshot note: victim selection, the admission comparison and every
per-victim eviction state of one admission price the *pre-eviction*
snapshot, while evictions touch the epoch as they execute — so
``BlazeCacheManager._admit`` resolves every needed value before the first
eviction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..service.tenancy import take_tiered
from .cost_lineage import CostLineage
from .cost_model import CostModel, PartitionState, StateFn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.blocks import Block
    from ..cluster.stores import BlockStore
    from ..metrics.collector import MetricsCollector

#: key function for the victim order: block -> order key (smallest first)
KeyFn = Callable[["Block"], float]


class DecisionCostCache:
    """The cost model, read through one memo per decision epoch."""

    def __init__(
        self,
        lineage: CostLineage,
        cost_model: CostModel,
        state_fn: StateFn,
        collector: "MetricsCollector | None" = None,
    ) -> None:
        self.lineage = lineage
        self.cost_model = cost_model
        self.state_fn = state_fn
        self.collector = collector
        self.touch_count = 0
        self._scratch: dict = {}
        self._scratch_stamp: tuple[int, int] = (-1, -1)

    def touch(self) -> None:
        """An input of the cost model changed: the current epoch ends."""
        self.touch_count += 1

    def scratch(self) -> dict:
        """The memo of the current epoch (a fresh one after any change)."""
        stamp = (self.lineage.version, self.touch_count)
        if stamp != self._scratch_stamp:
            self._scratch = {}
            self._scratch_stamp = stamp
        return self._scratch

    def _read(self, key: tuple, compute: Callable[..., float]) -> float:
        memo = self.scratch()
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute(key[1], key[2], self.state_fn, memo)
            if self.collector is not None:
                self.collector.cost_memo_misses += 1
        elif self.collector is not None:
            self.collector.cost_memo_hits += 1
        return value

    def potential_cost(self, rdd_id: int, split: int) -> float:
        """Eq. 2, ``min(cost_d, cost_r)``, under the future residency."""
        return self._read(("pc", rdd_id, split), self.cost_model.potential_cost)

    def cost_r(self, rdd_id: int, split: int) -> float:
        """Eq. 4 recomputation cost under the future residency."""
        return self._read(("r", rdd_id, split), self.cost_model.cost_r)

    def block_value(self, block: "Block") -> float:
        """Reference-weighted potential cost of a cached block."""
        refs = self.lineage.future_refs(block.rdd_id, inclusive=True)
        if refs <= 0:
            return 0.0
        return self.potential_cost(block.rdd_id, block.split) * refs

    def preferred_state(self, rdd_id: int, split: int) -> PartitionState:
        """``CostModel.preferred_eviction_state`` in the current epoch."""
        return self.cost_model.preferred_eviction_state(
            rdd_id, split, self.state_fn, self.scratch()
        )

    def explain_costs(self, rdd_id: int, split: int) -> tuple[float, float, float]:
        """Audit probe: ``(cost_d, cost_r, potential_cost)`` in this epoch.

        Reading may fill the epoch memo (shifting the hit/miss counters);
        it never changes a value or a decision.
        """
        cost_d = self.cost_model.cost_d(rdd_id, split, self.scratch())
        return cost_d, self.cost_r(rdd_id, split), self.potential_cost(rdd_id, split)


class VictimIndex:
    """One executor's memory residents in victim order, sorted per selection.

    :meth:`ensure_current` filters the store's live blocks an admission
    may displace and sorts them by ``(key_fn(b), seq, block_id)``;
    :meth:`select` and :meth:`select_tiered` walk that order.  Nothing is
    carried from one selection to the next, so a block removed from the
    store by any path can never be selected.
    """

    def __init__(
        self,
        key_fn: KeyFn,
        store: "BlockStore",
        collector: "MetricsCollector | None" = None,
    ) -> None:
        self._key_fn = key_fn
        self._store = store
        self.collector = collector

    def _sort_key(self, block: "Block") -> tuple:
        return self._key_fn(block), block.policy_data.get("seq", 0), block.block_id

    def ensure_current(self, incoming_rdd_id: int) -> list["Block"]:
        """The residents an admission of ``incoming_rdd_id`` may displace,
        in victim order (Spark's same-RDD guard: never its own blocks)."""
        store = self._store
        order = [
            block
            for rdd_id in store.resident_rdd_ids()
            if rdd_id != incoming_rdd_id
            for block in store.blocks_for_rdd(rdd_id)
        ]
        order.sort(key=self._sort_key)
        if self.collector is not None:
            self.collector.victim_index_rekeys += len(order)
        return order

    def select(
        self, needed_bytes: float, incoming_rdd_id: int
    ) -> tuple[list["Block"] | None, int]:
        """Walk the order cheapest-first; returns (victims, scanned).

        Stops once enough bytes are freed, ``None`` when even evicting
        everything eligible falls short.
        """
        victims: list["Block"] = []
        freed = 0.0
        scanned = 0
        for block in self.ensure_current(incoming_rdd_id):
            scanned += 1
            if freed >= needed_bytes:
                break
            victims.append(block)
            freed += block.size_bytes
        if freed < needed_bytes:
            return None, scanned
        return victims, scanned

    def select_tiered(
        self,
        needed_bytes: float,
        incoming_rdd_id: int,
        tier_of: Callable[["Block"], int | None],
        tenant: str | None,
        own_need: float,
    ) -> tuple[list["Block"] | None, int]:
        """Quota-mode :meth:`select`: ``(tier, key, seq, block_id)`` order.

        The fairness tier depends on the inserting tenant and on live
        usage; :func:`~repro.service.tenancy.take_tiered` partitions the
        sorted order by ``tier_of`` (stably), which yields the tiered
        order without a second sort.
        """
        return take_tiered(
            self.ensure_current(incoming_rdd_id),
            needed_bytes, incoming_rdd_id, tier_of, tenant, own_need,
        )
