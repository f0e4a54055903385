"""Fused narrow-chain execution: the data plane's pipelining layer.

Spark pipelines narrow transformations inside a stage: a chain of
one-to-one maps runs as a single pass over the input iterator, and the
intermediate datasets never exist as materialized collections.  The
simulator historically materialized every intermediate as a Python list
(`Driver._compute` recursion), which is faithful to the *cost model* but
dominates wall-clock time on map-heavy workloads.

This module recovers Spark's pipelining without perturbing anything the
caching layers observe.  A chain is fused only when every elided
intermediate

- is a plain element-wise ``MapPartitionsRDD`` (``elem_op`` set, default
  size weigher),
- has exactly one consumer in the whole dataset graph (so per-task
  memoization could never have deduplicated it), and
- will provably never be admitted by the cache manager
  (:meth:`~repro.cluster.cachemanager.CacheManager.will_never_store`),
  with a per-split runtime check that no block exists anywhere and the
  partition was never previously cached (no recovery accounting).

Under those conditions the unfused path's per-intermediate work reduces
to: an optional ``cache.miss`` trace instant, a compute-time charge, and
the ``on_partition_computed`` profiling callback — all of which the fused
executor replays in the exact unfused order with the exact unfused
cardinalities, so traces stay byte-identical and decisions bit-identical.

The module also hosts the bulk key-column helper the shuffle data plane
uses: extracting an integer key column as one ``numpy`` array so partition
ids can be computed vectorized instead of per-record, with a pure-Python
fallback for every other key type.  (Vectorized *grouping* — argsort +
run slicing — was benchmarked against the single-lookup dict loop and
lost at every batch size; building the many small per-key value lists is
the dominant cost, so grouping stays in plain Python everywhere.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from ..storage.columnar import ColumnarBatch
from ..tracing.tracer import executor_pid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.driver import Driver
    from ..cluster.executor import Executor
    from ..metrics.collector import TaskMetrics
    from .rdd import RDD


#: below this many records the numpy key-column setup costs more than
#: the per-record loop it replaces
BULK_MIN_RECORDS = 64


# ----------------------------------------------------------------------
# Narrow-chain fusion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedChain:
    """A fusable narrow chain: ``source -> mids[-1] -> ... -> mids[0] -> top``.

    ``mids`` are the elided intermediates ordered nearest-to-top first
    (the order the unfused recursion emits their ``cache.miss`` instants);
    ``source`` is materialized through the normal cache-aware path.
    """

    top: "RDD"
    mids: tuple
    source: "RDD"


class FusionPlanner:
    """Plans and executes fused narrow chains for one driver.

    Plans are structural and cached per ``(stage epoch, graph size)``:
    eligibility depends on lineage position and the consumer count, both
    of which only change at stage boundaries / when new datasets are
    registered (between jobs).  Residency is checked per split at
    execution time.
    """

    def __init__(self, driver: "Driver") -> None:
        self.driver = driver
        self.cluster = driver.cluster
        self.cache_manager = driver.cache_manager
        self.metrics = driver.metrics
        self._plans: dict[int, FusedChain | None] = {}
        self._children: dict[int, int] = {}
        self._stamp: tuple[int, int] = (-1, -1)
        self._epoch = 0

    def begin_stage(self) -> None:
        """Invalidate structural plans (lineage positions just moved)."""
        self._epoch += 1

    # -- planning ------------------------------------------------------
    def plan_for(self, rdd: "RDD") -> FusedChain | None:
        """The fused chain ending at ``rdd``, or None if nothing fuses."""
        ctx = rdd.ctx
        stamp = (self._epoch, ctx.num_rdds)
        if stamp != self._stamp:
            self._plans.clear()
            children: dict[int, int] = {}
            for r in ctx.all_rdds():
                for dep in r.deps:
                    pid = dep.parent.rdd_id
                    children[pid] = children.get(pid, 0) + 1
            self._children = children
            self._stamp = stamp
        rdd_id = rdd.rdd_id
        try:
            return self._plans[rdd_id]
        except KeyError:
            pass
        plan = self._plan(rdd)
        self._plans[rdd_id] = plan
        if plan is not None:
            self.metrics.chains_fused += 1
        return plan

    def _plan(self, rdd: "RDD") -> FusedChain | None:
        from .rdd import MapPartitionsRDD

        if type(rdd) is not MapPartitionsRDD:
            return None
        if rdd.elem_op is None and not rdd.streamable:
            return None
        mids: list = []
        children = self._children
        will_never_store = self.cache_manager.will_never_store
        node = rdd.deps[0].parent
        while (
            type(node) is MapPartitionsRDD
            and node.elem_op is not None
            and node.size_weigher is None
            and children.get(node.rdd_id, 0) == 1
            and will_never_store(node)
        ):
            mids.append(node)
            node = node.deps[0].parent
        if not mids:
            return None
        return FusedChain(top=rdd, mids=tuple(mids), source=node)

    def runtime_ok(self, chain: FusedChain, split: int) -> bool:
        """Per-split residency guard: every elided partition must miss.

        A resident block (stale cache from an earlier annotation) or a
        previously-cached id (recovery accounting) would make the unfused
        path observably different, so fall back to it.  ``_was_cached``
        suffices for both checks: every *new* block id enters a store
        through ``Driver.materialize``'s ``handle_cache`` call, after
        which the driver records the id — spills, promotions, and
        prefetches only relocate already-recorded blocks — so the set is
        a superset of everything currently resident anywhere.

        This guard also survives mid-chain *loss* (fault injection):
        ``_was_cached`` membership is never revoked, so a partition wiped
        by a crash keeps forcing the unfused path, whose recovery
        accounting recomputes (and re-offers) it — a fused pipeline must
        never silently elide a partition the run already paid to cache.
        """
        was_cached = self.driver._was_cached
        memo = self.driver._task_memo
        for mid in chain.mids:
            bid = (mid.rdd_id, split)
            if bid in memo or bid in was_cached:
                return False
        return True

    # -- execution -----------------------------------------------------
    def execute(
        self,
        chain: FusedChain,
        split: int,
        executor: "Executor",
        tm: "TaskMetrics",
    ) -> tuple[Any, int]:
        """Run the chain as one pass; returns (top partition, top n_in).

        Event/charge ordering replays the unfused recursion exactly:
        ``cache.miss`` instants top-down, then the source's own events,
        then per-intermediate compute charges and profiling callbacks
        bottom-up.  The caller charges the top itself.

        When the source arrives as a :class:`ColumnarBatch`, the chain
        first attempts the vectorized kernel path
        (``repro.storage.kernels``); a kernel fallback lands on the
        iterator pipeline below before any charge or event fires, so the
        two paths are observationally
        indistinguishable — per-stage cardinalities feed one shared
        charge loop with identical float math either way.
        """
        driver = self.driver
        tracer = driver.tracer
        cm = self.cache_manager
        mids = chain.mids
        for mid in mids:
            if cm.is_cache_candidate(mid):
                driver.metrics.cache_misses += 1
        if tracer.enabled:
            pid = executor_pid(executor.executor_id)
            for mid in mids:
                if cm.is_cache_candidate(mid):
                    tracer.instant(
                        "cache.miss", "cache", pid=pid,
                        rdd=mid.rdd_id, split=split, recovery=False,
                    )

        src = driver.materialize(chain.source, split, executor, tm)

        stages = list(mids[::-1])
        top = chain.top
        out: Any = None
        stage_n_outs: list[int] | None = None

        # Vectorized kernel path: batch-at-a-time numpy execution of the
        # whole chain.  run_chain returns None (having touched nothing
        # observable) whenever the chain can't be vectorized faithfully.
        if isinstance(src, ColumnarBatch):
            res = driver.columnar.kernels.run_chain(chain, stages, src, self.metrics)
            if res is not None:
                body, stage_n_outs = res
                if top.elem_op is not None:
                    # A custom size weigher must see the exact list the
                    # unfused path would hand it, so decode for those.
                    out = body if top.size_weigher is None else list(body)
                else:  # streamable map_partitions body over the mids' batch
                    produced = top._fn(split, iter(body))
                    out = produced if type(produced) is list else list(produced)
                self.metrics.kernel_partitions += 1

        if out is None and driver.shard is not None:
            # Sharded engine: substitute the worker's speculated top output
            # and per-stage cardinalities.  Checked only after the kernel
            # path declines so the kernel-vs-pipeline choice (and its
            # counters/batch outputs) is identical to the unsharded run.
            speculated = driver.shard.speculated_fused(chain, split)
            if speculated is not None:
                out, stage_n_outs = speculated

        if out is None:
            # Iterator pipeline.  Output counts are only measured where
            # they are not derivable (filter / flat_map); plain maps use
            # the C-level `map` iterator and inherit their input count.
            counts: list[list[int] | None] = []
            stream: Iterator = iter(src)
            for mid in stages:
                kind, fn = mid.elem_op
                if kind == "map":
                    counts.append(None)
                    stream = map(fn, stream)
                elif kind == "filter":
                    cell = [0]
                    counts.append(cell)
                    stream = _counted_filter(fn, stream, cell)
                else:  # flat_map
                    cell = [0]
                    counts.append(cell)
                    stream = _counted_flat_map(fn, stream, cell)

            if top.elem_op is not None:
                kind, fn = top.elem_op
                if kind == "map":
                    out = list(map(fn, stream))
                elif kind == "filter":
                    out = [x for x in stream if fn(x)]
                else:
                    out = [y for x in stream for y in fn(x)]
            else:  # streamable map_partitions body (single-pass consumer)
                produced = top._fn(split, stream)
                out = produced if type(produced) is list else list(produced)
                _exhaust(stream)  # the unfused path always computes everything

            stage_n_outs = []
            running = len(src)
            for j in range(len(stages)):
                cell = counts[j]
                if cell is not None:
                    running = cell[0]
                stage_n_outs.append(running)

        # Charge + observe in the unfused (deepest-first) order with
        # identical float math, whichever path produced the counts.
        recovery = driver._recovery_depth > 0
        on_computed = cm.on_partition_computed
        n_in = len(src)
        for mid, n_out in zip(stages, stage_n_outs):
            seconds = mid.op_cost.seconds(n_in, n_out)
            tm.compute_seconds += seconds
            if recovery:
                tm.recompute_seconds += seconds
            on_computed(mid, split, n_in, n_out, seconds, float(n_out))
            n_in = n_out

        self.metrics.partitions_pipelined += 1
        return out, n_in


def _counted_filter(pred: Callable, it: Iterator, cell: list) -> Iterator:
    n = 0
    for x in it:
        if pred(x):
            n += 1
            yield x
    cell[0] = n


def _counted_flat_map(fn: Callable, it: Iterator, cell: list) -> Iterator:
    n = 0
    for x in it:
        for y in fn(x):
            n += 1
            yield y
    cell[0] = n


def _exhaust(it: Iterator) -> None:
    for _ in it:
        pass


# ----------------------------------------------------------------------
# Bulk integer-key extraction (used by the shuffle write fast path)
# ----------------------------------------------------------------------
def int_keys_of(records) -> "np.ndarray | None":
    """The keys of ``records`` as an int64 array, or None if ineligible.

    Eligibility is decided by explicit *Python type* checks, not numpy
    dtype inference: the key column vectorizes only when every key is a
    genuine ``int`` (so modulo/compare semantics match ``_stable_hash``'s
    int passthrough) that fits in int64.  Everything else — ``bool`` keys
    (an int subclass numpy would happily cast to 0/1 while ``_stable_hash``
    sees the bool), mixed int/float columns (inference would promote the
    ints to float64), ints outside int64 range (silent wraparound under
    older inference rules), floats, strings, tuples, ragged records —
    lands on the exact pure-Python fallback.

    A :class:`ColumnarBatch` holding int-keyed tuples short-circuits all
    of that: its key column is already a validated int64 array.
    """
    key_column = getattr(records, "int_key_column", None)
    if key_column is not None:
        return key_column()
    try:
        keys = [r[0] for r in records]
    except (TypeError, IndexError, KeyError):  # non-subscriptable / empty keys
        return None
    if set(map(type, keys)) != {int}:
        return None
    try:
        return np.asarray(keys, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):  # outside int64 range
        return None
