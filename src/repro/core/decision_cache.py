"""Epoch-cached decision state: cost memos and the indexed victim order.

Re-deriving an admission from scratch takes a fresh ``memo={}`` for the
cost recursion, an O(B) filter + sort over every resident block for
victim selection, and a full event-bucket scan for reference counts.
This module keeps that state up to date across admissions instead.  The
contract: every read equals what the from-scratch derivation would
return against the same snapshot, bit for bit (``tests/property`` and
the online differential oracle in ``tests/integration`` check it):

- :class:`DecisionCostCache` memoizes ``potential_cost`` / ``cost_r`` /
  eviction-state results across admissions.  Entries are stamped with
  ``(lineage.version, dirty[rdd, split])`` — the lineage version advances
  on position/event/structure changes, and a per-*partition* dirty counter
  is bumped for every (descendant rdd, split) whose recursion can reach a
  partition whose residency or observed metrics changed.  The recursion
  maps a child's split to ``split % parents_num_splits``, so the affected
  set is propagated through the inverse of that mapping (usually a single
  split per descendant, which is what makes eviction-time invalidation
  cheap).
- Results that consulted a regression/mean *estimate* (an unobserved
  partition) are volatile — new observations of congruent partitions
  shift them without touching the dataset itself — so they are stamped
  with the global touch counter instead and die on the next touch of
  anything.
- :class:`VictimIndex` keeps each executor's resident blocks sorted by
  ``(order_key, seq, block_id)``, the order a filter + sort would
  produce.  Entries are repaired lazily: a version change rebuilds,
  a dirty mark (from the same split propagation) re-keys just the
  affected entries, and tombstoned removals are compacted in bulk.

Correctness note on snapshots: victim selection, the admission
comparison, and every per-victim eviction-state decision of one admission
all price the *pre-eviction* residency snapshot, while evictions mutate
state (and invalidate entries here) as they execute — so
``BlazeCacheManager._admit`` resolves every needed value before the first
eviction.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Callable

from ..service.tenancy import take_tiered
from .cost_lineage import CostLineage
from .cost_model import CostModel, PartitionState, StateFn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.blocks import Block, BlockId
    from ..metrics.collector import MetricsCollector

#: key function for the victim index: block -> (order key, stable?)
KeyFn = Callable[["Block"], tuple[float, bool]]


class DecisionCostCache:
    """Cross-admission memo for the cost model, with epoch invalidation.

    Invalidation rules (the contract every consumer relies on):

    ==========================  =========================================
    input change                propagation
    ==========================  =========================================
    position / events /         ``lineage.version`` advances; every
    structure / cycle           entry is stale (checked lazily)
    residency of (X, s)         ``touch(X, s)``: dirty counter bumped for
                                (X, s) and every descendant partition
                                whose recursion reaches (X, s)
    observed metrics of (X, s)  same ``touch(X, s)``; *identical*
                                re-observations skip the touch unless
                                any volatile value is live (duplicate
                                regression samples shift estimates)
    any touch at all            the recursion scratch memo and every
                                volatile (regression-derived) entry die
    ==========================  =========================================
    """

    def __init__(
        self,
        lineage: CostLineage,
        cost_model: CostModel,
        state_fn: StateFn,
        collector: "MetricsCollector | None" = None,
        consulted: bool = True,
    ) -> None:
        self.lineage = lineage
        self.cost_model = cost_model
        self.state_fn = state_fn
        self.collector = collector
        #: False when the active config never reads cached cost values
        #: (no admission comparison, no spill-vs-recompute choice): touches
        #: then skip the dirty propagation entirely and only feed the
        #: victim indexes / touch counter.
        self.consulted = consulted
        #: (rdd, split) -> (value, version, dirty, volatile_tc | None)
        self._pc: dict[tuple[int, int], tuple[float, int, int, int | None]] = {}
        self._cr: dict[tuple[int, int], tuple[float, int, int, int | None]] = {}
        self._dirty: dict[tuple[int, int], int] = {}
        self.touch_count = 0
        self._scratch: dict = {}
        self._scratch_stamp: tuple[int, int] = (-1, -1)
        #: True when any stability probe failed in the current epoch —
        #: i.e. some live scratch/memo value may derive from a regression
        self._epoch_has_unstable = False
        # per touched dataset, its descendants and the split mapping onto
        # them, memoized per structure version (the mapping also uses
        # num_splits, whose changes bump structure_version)
        self._plans: dict[int, tuple[tuple[int, int, tuple], ...]] = {}
        self._plans_version = -1
        # (rdd, split) pairs proven stable; monotone under observations,
        # reset only if the graph topology changes
        self._stable_true: set[tuple[int, int]] = set()
        self._stable_version = -1
        #: victim indexes to notify on touches (executor_id -> index)
        self.indexes: dict[int, "VictimIndex"] = {}

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _descendant_plan(self, rdd_id: int) -> tuple[tuple[int, int, tuple], ...]:
        """The descendants of a dataset, for :meth:`_affected_pairs`.

        Per descendant in topological order: its split count, and its
        parents inside the set with theirs.  Memoized per dataset rather
        than per partition: deep lineages would otherwise keep one long
        pair tuple per touched partition.
        """
        if self._plans_version != self.lineage.structure_version:
            self._plans.clear()
            self._plans_version = self.lineage.structure_version
        plan = self._plans.get(rdd_id)
        if plan is not None:
            return plan
        lineage = self.lineage
        children_of = lineage.children_of
        # reverse DFS postorder from the touched dataset
        postorder: list[int] = []
        seen = {rdd_id}
        stack = [(rdd_id, iter(children_of(rdd_id)))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(children_of(child))))
                    break
            else:
                stack.pop()
                postorder.append(node)
        order = postorder[-2::-1]
        ns = {r: max(lineage.num_splits_of(r), 1) for r in seen}
        plan = tuple(
            (d, ns[d], tuple((p, ns[p]) for p in set(lineage.parents_of(d)) if p in seen))
            for d in order
        )
        self._plans[rdd_id] = plan
        return plan

    def _affected_pairs(self, rdd_id: int, split: int) -> list[tuple[int, int]]:
        """Every (rdd, split) whose cost recursion can reach (rdd_id, split).

        The recursion maps a partition to parent split ``s % max(ns_p, 1)``,
        so partition (C, s) depends on (P, p) iff ``s % max(ns_P, 1) == p``
        along some ancestor path.  Inverting edge by edge over the
        descendants yields the dependents; with co-partitioned iterative
        lineages this is the touched split itself in every descendant.
        """
        if split >= max(self.lineage.num_splits_of(rdd_id), 1):
            # past the split count the lineage knows (e.g. a dataset it
            # never registered): no recursion maps a split onto this one
            return [(rdd_id, split)]
        affected: dict[int, set[int]] = {rdd_id: {split}}
        for d, ns_d, parents in self._descendant_plan(rdd_id):
            splits: set[int] = set()
            for p, ns_p in parents:
                parent_splits = affected[p]
                if ns_p == ns_d:
                    splits |= parent_splits
                elif ns_d < ns_p:
                    splits.update(s for s in parent_splits if s < ns_d)
                else:
                    splits.update(c for s in parent_splits for c in range(s, ns_d, ns_p))
            affected[d] = splits
        return [(r, s) for r, splits in affected.items() for s in splits]

    def touch(self, rdd_id: int, split: int, residency: bool = False) -> None:
        """Residency (``residency=True``) or observed metrics of partition
        (rdd, split) changed."""
        self.touch_count += 1
        if self.consulted:
            pairs = self._affected_pairs(rdd_id, split)
            dirty = self._dirty
            for pair in pairs:
                dirty[pair] = dirty.get(pair, 0) + 1
        elif residency:
            # No cost consumer and the ordering keys (cost_d / LRU) never
            # read residency: the counter bump above is all that's needed.
            return
        else:
            # Observed metrics move at most the partition's own cost_d key
            # (no recursion); estimate-derived keys ride the touch counter.
            pairs = ((rdd_id, split),)
        for index in self.indexes.values():
            if index.sensitivity != "marks":
                for pair in pairs:
                    index.mark_block(pair)

    def note_observation(
        self, rdd_id: int, split: int, size_bytes: float, compute_seconds: float
    ) -> None:
        """Pre-observation hook: decide whether the observation changes inputs.

        Must run *before* ``lineage.observe_partition``.  A re-observation
        with identical values leaves every stable estimate untouched; it
        still perturbs regressions (duplicate samples), so the skip is
        only taken when no volatile value is live anywhere.
        """
        pm = self.lineage.metrics._observed.get((rdd_id, split))
        if (
            pm is not None
            and pm.size_bytes == size_bytes
            and pm.compute_seconds == compute_seconds
            and not self._epoch_has_unstable
            and not any(idx.has_unstable for idx in self.indexes.values())
        ):
            return
        self.touch(rdd_id, split)

    def scratch(self) -> dict:
        """The epoch-local cost-model recursion memo."""
        stamp = (self.lineage.version, self.touch_count)
        if stamp != self._scratch_stamp:
            self._scratch = {}
            self._scratch_stamp = stamp
            self._epoch_has_unstable = False
        return self._scratch

    # ------------------------------------------------------------------
    # Stability: may a value be persisted across touches?
    # ------------------------------------------------------------------
    def _stable(self, rdd_id: int, split: int) -> bool:
        """True when every estimate in the partition's ancestry is pinned
        by a direct observation (live or prior), so no future observation
        of *other* partitions can shift the computed costs."""
        if self._stable_version != self.lineage.structure_version:
            self._stable_true.clear()
            self._stable_version = self.lineage.structure_version
        key = (rdd_id, split)
        if key in self._stable_true:
            return True
        scratch = self.scratch()
        cached = scratch.get(("stable", rdd_id, split))
        if cached is not None:
            return cached
        lineage = self.lineage
        ok = (
            lineage.estimate_size_ex(rdd_id, split)[1]
            and lineage.estimate_compute_seconds_ex(rdd_id, split)[1]
        )
        if ok:
            for parent in lineage.parents_of(rdd_id):
                parent_split = split % max(lineage.num_splits_of(parent), 1)
                if not self._stable(parent, parent_split):
                    ok = False
                    break
        if ok:
            self._stable_true.add(key)
        else:
            scratch[("stable", rdd_id, split)] = False
            self._epoch_has_unstable = True
        return ok

    # ------------------------------------------------------------------
    # Cached cost queries (values bit-identical to fresh-memo computes)
    # ------------------------------------------------------------------
    def _lookup(
        self, table: dict, rdd_id: int, split: int
    ) -> tuple[float, bool]:
        entry = table.get((rdd_id, split))
        if entry is None:
            return 0.0, False
        value, version, dirty, volatile_tc = entry
        if (
            version == self.lineage.version
            and dirty == self._dirty.get((rdd_id, split), 0)
            and (volatile_tc is None or volatile_tc == self.touch_count)
        ):
            return value, True
        return 0.0, False

    def _store(self, table: dict, rdd_id: int, split: int, value: float) -> bool:
        stable = self._stable(rdd_id, split)
        table[(rdd_id, split)] = (
            value,
            self.lineage.version,
            self._dirty.get((rdd_id, split), 0),
            None if stable else self.touch_count,
        )
        return stable

    def potential_cost(self, rdd_id: int, split: int) -> float:
        return self.potential_cost_ex(rdd_id, split)[0]

    def potential_cost_ex(self, rdd_id: int, split: int) -> tuple[float, bool]:
        """``min(cost_d, cost_r)`` plus whether the value is stable."""
        value, hit = self._lookup(self._pc, rdd_id, split)
        if hit:
            if self.collector is not None:
                self.collector.cost_memo_hits += 1
            entry = self._pc[(rdd_id, split)]
            return entry[0], entry[3] is None
        if self.collector is not None:
            self.collector.cost_memo_misses += 1
        value = self.cost_model.potential_cost(
            rdd_id, split, self.state_fn, self.scratch()
        )
        stable = self._store(self._pc, rdd_id, split, value)
        return value, stable

    def cost_r(self, rdd_id: int, split: int) -> float:
        value, hit = self._lookup(self._cr, rdd_id, split)
        if hit:
            if self.collector is not None:
                self.collector.cost_memo_hits += 1
            return value
        if self.collector is not None:
            self.collector.cost_memo_misses += 1
        value = self.cost_model.cost_r(rdd_id, split, self.state_fn, self.scratch())
        self._store(self._cr, rdd_id, split, value)
        return value

    def block_value(self, block: "Block") -> float:
        return self.block_value_ex(block)[0]

    def block_value_ex(self, block: "Block") -> tuple[float, bool]:
        """Reference-weighted potential cost of a cached block."""
        refs = self.lineage.future_refs(block.rdd_id, inclusive=True)
        if refs <= 0:
            return 0.0, True
        value, stable = self.potential_cost_ex(block.rdd_id, block.split)
        return value * refs, stable

    def forget(self, rdd_id: int, split: int) -> None:
        """Drop the partition's memoized costs entirely (fault loss).

        ``touch`` already invalidates lazily; ``forget`` is hygiene for
        blocks that *vanished* — their entries can never be revalidated
        and would otherwise pin stale floats (and memory) forever.
        """
        self._pc.pop((rdd_id, split), None)
        self._cr.pop((rdd_id, split), None)

    def preferred_state(self, rdd_id: int, split: int) -> PartitionState:
        """Cached twin of ``CostModel.preferred_eviction_state``.

        The expression mirrors that one operand-for-operand so the
        comparison sees identical floats (including the remote-tier
        strict-less-than override when a remote model is bound).
        """
        scratch = self.scratch()
        spill_total = self.cost_model.disk_write_cost(
            rdd_id, split, scratch
        ) + self.cost_model.cost_d(rdd_id, split, scratch)
        recompute = self.cost_r(rdd_id, split)
        best: PartitionState = "disk" if spill_total < recompute else "gone"
        if self.cost_model.remote is not None:
            remote_total = self.cost_model.remote_write_cost(
                rdd_id, split, scratch
            ) + self.cost_model.cost_remote(rdd_id, split, scratch)
            if remote_total < min(spill_total, recompute):
                best = "remote"
        return best

    def explain_costs(self, rdd_id: int, split: int) -> tuple[float, float, float]:
        """Audit probe: ``(cost_d, cost_r, potential_cost)`` via the caches.

        Resolved at the current epoch, so the values are bit-identical to
        a fresh computation against the same snapshot (this cache's core
        invariant).  Reading may populate memo entries (shifting the
        hit/miss counters); it never changes a value or a decision.
        """
        cost_d = self.cost_model.cost_d(rdd_id, split, self.scratch())
        return cost_d, self.cost_r(rdd_id, split), self.potential_cost(rdd_id, split)


class VictimIndex:
    """Per-executor sorted victim order with lazy invalidation.

    Entries are ``(order_key, seq, block_id)`` kept in a sorted list, the
    order sorting the residents would give.  Removals tombstone (the live
    entry map is authoritative); stale entries are re-keyed in place.  A lineage
    version change invalidates every key (reference counts enter the
    full-Blaze ordering), so the index rebuilds at most once per stage
    instead of sorting on every admission.
    """

    def __init__(
        self,
        key_fn: KeyFn,
        collector: "MetricsCollector | None" = None,
        sensitivity: str = "version",
    ) -> None:
        self._key_fn = key_fn
        self.collector = collector
        #: what can move this ordering's keys:
        #:   "version" — anything the lineage version covers (reference
        #:               counts enter the full-Blaze density key);
        #:   "touch"   — per-partition observations plus, for estimate-
        #:               derived keys, any touch (+CostAware: cost_d);
        #:   "marks"   — explicit marks only (+AutoCache: last_access)
        self.sensitivity = sensitivity
        #: sorted (key, seq, block_id, generation); the generation makes
        #: every insertion unique, so a re-admitted block can never alias a
        #: tombstoned entry that happens to share its key
        self._entries: list[tuple[float, int, "BlockId", int]] = []
        #: authoritative entry per live block; None = key not yet computed
        self._map: dict["BlockId", tuple[float, int, "BlockId", int] | None] = {}
        self._gen = 0
        self._blocks: dict["BlockId", "Block"] = {}
        self._by_rdd: dict[int, set["BlockId"]] = {}
        self._stale: set["BlockId"] = set()
        self._unstable: set["BlockId"] = set()
        self._dead = 0
        self._version = -1
        self._touch_count = -1

    @property
    def has_unstable(self) -> bool:
        return bool(self._unstable)

    # ------------------------------------------------------------------
    # Membership (driven by the residency listener)
    # ------------------------------------------------------------------
    def add(self, block: "Block") -> None:
        """Register a block; its key is computed at the next selection.

        Deferring the key sidesteps ordering hazards (``last_access`` is
        touched right after insertion, promoted blocks likewise).
        """
        block_id = block.block_id
        self._blocks[block_id] = block
        self._map[block_id] = None
        self._by_rdd.setdefault(block.rdd_id, set()).add(block_id)
        self._stale.add(block_id)

    def remove(self, block_id: "BlockId") -> None:
        block = self._blocks.pop(block_id, None)
        if block is None:
            return
        entry = self._map.pop(block_id, None)
        if entry is not None:
            self._dead += 1
        members = self._by_rdd.get(block.rdd_id)
        if members is not None:
            members.discard(block_id)
            if not members:
                del self._by_rdd[block.rdd_id]
        self._stale.discard(block_id)
        self._unstable.discard(block_id)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def mark_block(self, block_id: "BlockId") -> None:
        if block_id in self._blocks:
            self._stale.add(block_id)

    def invalidate(self) -> None:
        """Force every key to be recomputed at the next selection.

        Fleet-membership changes move the home-executor mapping (and with
        it every residency-dependent cost) without bumping the lineage
        version or any dirty counter, so no lazy rule can catch them.
        """
        self._version = -1
        self._touch_count = -1
        self._stale.update(self._blocks)

    # ------------------------------------------------------------------
    # Repair + selection
    # ------------------------------------------------------------------
    def _rekey(self, block_id: "BlockId") -> None:
        block = self._blocks.get(block_id)
        if block is None:
            return
        key, stable = self._key_fn(block)
        if self.collector is not None:
            self.collector.victim_index_rekeys += 1
        if stable:
            self._unstable.discard(block_id)
        else:
            self._unstable.add(block_id)
        seq = block.policy_data.get("seq", 0)
        old = self._map.get(block_id)
        if old is not None and old[0] == key and old[1] == seq:
            return  # live entry already carries this key
        if old is not None:
            self._dead += 1
        self._gen += 1
        entry = (key, seq, block_id, self._gen)
        self._map[block_id] = entry
        insort(self._entries, entry)

    def _rebuild(self) -> None:
        entries = []
        self._unstable.clear()
        for block_id, block in self._blocks.items():
            key, stable = self._key_fn(block)
            self._gen += 1
            entry = (key, block.policy_data.get("seq", 0), block_id, self._gen)
            self._map[block_id] = entry
            entries.append(entry)
            if not stable:
                self._unstable.add(block_id)
            if self.collector is not None:
                self.collector.victim_index_rekeys += 1
        entries.sort()
        self._entries = entries
        self._dead = 0
        self._stale.clear()

    def ensure_current(self, version: int, touch_count: int) -> None:
        """Bring the order up to date for the current decision epoch."""
        if version != self._version:
            self._version = version
            if self.sensitivity == "version":
                self._touch_count = touch_count
                self._rebuild()
                return
            if self.sensitivity == "touch":
                # stable keys (observed partitions) cannot move with the
                # version, but regression-derived ones can
                self._stale.update(self._unstable)
        if self.sensitivity != "marks" and touch_count != self._touch_count:
            self._touch_count = touch_count
            # any touch can shift regression-derived keys
            self._stale.update(self._unstable)
        if self._stale:
            for block_id in sorted(self._stale):
                self._rekey(block_id)
            self._stale.clear()
        if self._dead > 32 and self._dead * 2 > len(self._entries):
            live = [e for e in self._map.values() if e is not None]
            live.sort()
            self._entries = live
            self._dead = 0

    def select(
        self, needed_bytes: float, incoming_rdd_id: int
    ) -> tuple[list["Block"] | None, int]:
        """Walk the order cheapest-first; returns (victims, scanned).

        Skips blocks of the incoming dataset (Spark's same-RDD guard),
        stops once enough bytes are freed, ``None`` when even evicting
        everything eligible falls short.
        """
        victims: list["Block"] = []
        freed = 0.0
        scanned = 0
        for entry in self._entries:
            block_id = entry[2]
            if self._map.get(block_id) != entry:
                continue  # tombstone or re-keyed
            block = self._blocks[block_id]
            if block.rdd_id == incoming_rdd_id:
                continue
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
        usage, so it cannot live in the stored key; the live order goes
        to :func:`~repro.service.tenancy.take_tiered`, whose stable
        partition by ``tier_of`` yields the tiered order without a sort.
        """
        live = (
            self._blocks[entry[2]]
            for entry in self._entries
            if self._map.get(entry[2]) == entry  # skip tombstones, re-keys
        )
        return take_tiered(
            live, needed_bytes, incoming_rdd_id, tier_of, tenant, own_need
        )
