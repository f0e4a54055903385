"""The shard coordinator: supersteps, the need-walk, and oracle lookups.

The coordinator owns everything *authoritative* — the VirtualClock, the
cache-decision path (UDL scoring / ILP placement stay centralized), the
metrics, and the trace — and drives stages as supersteps:

1. at each stage boundary (a virtual-time barrier) it drains the
   residency directory's delta journal, walks the stage's lineage for the
   keys the sequential replay will actually have to compute (the *need
   set*: uncached, non-pass-through nodes, recursing through incomplete
   shuffles into their map side), and dispatches those keys to the shard
   transport in bulk;
2. workers speculatively evaluate the pure data plane and return
   partition payloads (or just cardinalities for fusion-elided
   intermediates) plus merged reduce-input counts;
3. the replay then runs the unmodified engine, substituting worker
   results at the innermost compute points via :meth:`speculated` /
   :meth:`speculated_fused`.  A miss falls back to local compute, so the
   shard plane can never change results — only wall-clock time.

Traces stay byte-identical to the single-process engine: the tracer's
shard routing (see ``repro.tracing.tracer``) is a reordering-proof merge,
and the oracle only ever substitutes values equal to what local compute
would have produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dataflow.rdd import (
    CoalesceRDD,
    MapPartitionsRDD,
    ParallelCollectionRDD,
    UnionRDD,
)
from .oracle import ComputeOracle
from .plan import ShardPlan
from .transport import LocalShardTransport, ProcessShardTransport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.driver import Driver
    from ..config import BlazeConfig
    from ..dataflow.fusion import FusedChain
    from ..dataflow.rdd import RDD

#: narrow pass-through types excluded from the need set: their computes
#: may hand a parent partition (possibly a ColumnarBatch) straight back,
#: which a worker's plain-list result would observably diverge from —
#: and they are too cheap to be worth substituting anyway
_PASSTHROUGH_TYPES = (UnionRDD, CoalesceRDD, ParallelCollectionRDD)


class ShardCoordinator:
    """Superstep driver for one :class:`~repro.cluster.driver.Driver`."""

    def __init__(self, driver: "Driver", config: "BlazeConfig") -> None:
        self.driver = driver
        self.cluster = driver.cluster
        self.metrics = self.cluster.metrics
        self.plan = ShardPlan(len(self.cluster.executors), config.num_shards)
        self.oracle = ComputeOracle()
        self.oracle_hits = 0
        self.oracle_misses = 0
        if config.shard_transport == "process":
            self.transport = ProcessShardTransport(self)
        else:
            self.transport = LocalShardTransport(self)
        self.cluster.directory.enable_journal()
        #: clock moves since the last barrier (superstep diagnostic); the
        #: listener is removed in ``shutdown`` — mid-sweep removal safe
        self._moves_since_barrier = 0
        self._clock_listener = self._on_clock_advance
        self.cluster.clock.add_listener(self._clock_listener)
        tracer = self.cluster.tracer
        if tracer.enabled and hasattr(tracer, "enable_shard_routing"):
            tracer.enable_shard_routing(self.plan.shard_of_executor)
        driver.shard = self

    def _on_clock_advance(self, now: float) -> None:
        self._moves_since_barrier += 1

    # ------------------------------------------------------------------
    # Superstep dispatch (called by the driver at every stage boundary)
    # ------------------------------------------------------------------
    def prepare_stage(self, stage) -> None:
        """Barrier sync: exchange deltas, dispatch the stage's need set."""
        if len(self.cluster.executors) != self.plan.num_executors:
            # Elastic scale-up provisioned executors since the plan was
            # built: re-stripe the contiguous ranges (and the tracer's
            # shard routing) over the grown list.  Parked executors keep
            # their ids, so the mapping stays pure arithmetic.
            self.plan = ShardPlan(len(self.cluster.executors), self.plan.num_shards)
            tracer = self.cluster.tracer
            if tracer.enabled and hasattr(tracer, "enable_shard_routing"):
                tracer.enable_shard_routing(self.plan.shard_of_executor)
        self.metrics.barrier_syncs += 1
        self._moves_since_barrier = 0
        deltas = self.cluster.directory.drain_journal()
        self.metrics.residency_deltas += len(deltas)
        need, nodes = self._need_walk(stage)
        self.oracle = ComputeOracle()
        if not need:
            return
        if self.transport.run_superstep(stage, need, nodes, deltas, self.oracle):
            self.metrics.tasks_dispatched += stage.num_tasks

    def _need_walk(self, stage) -> tuple[dict, dict]:
        """Keys the replay will compute: ``{(rdd_id, split): want_data}``.

        The walk mirrors the replay's input resolution: stop at partitions
        resident in the simulated cluster (the replay will cache-hit) and
        at complete shuffles (the replay charges fetch stats against the
        registered buckets); recurse through narrow deps and into the map
        side of incomplete shuffles.  Fusion-elidable intermediates are
        marked len-only — the fused charge loop needs just cardinalities.
        """
        cluster = self.cluster
        cache_manager = self.driver.cache_manager
        directory = cluster.directory
        shuffle = cluster.shuffle
        consumers = self._consumers_of(stage.rdd)

        need: dict[tuple[int, int], bool] = {}
        nodes: dict[int, "RDD"] = {}
        stack = [(stage.rdd, split) for split in range(stage.num_tasks - 1, -1, -1)]
        seen: set[tuple[int, int]] = set()
        while stack:
            rdd, split = stack.pop()
            key = (rdd.rdd_id, split)
            if key in seen:
                continue
            seen.add(key)
            if cache_manager.is_cache_candidate(rdd):
                holders = directory.holders_of(key)
                if holders:
                    continue  # the replay will hit this one
                if cluster.remote_block(key) is not None:
                    continue  # resident in the remote tier: the replay hits
            nodes.setdefault(rdd.rdd_id, rdd)
            if type(rdd) not in _PASSTHROUGH_TYPES:
                need[key] = not self._len_only(rdd, consumers)
            for parent, parent_split in rdd.narrow_inputs(split):
                stack.append((parent, parent_split))
            for dep in rdd.shuffle_deps:
                if shuffle.is_complete(dep):
                    continue
                nodes.setdefault(dep.parent.rdd_id, dep.parent)
                for map_split in range(dep.parent.num_partitions):
                    stack.append((dep.parent, map_split))
        return need, nodes

    def _consumers_of(self, final_rdd: "RDD") -> dict[int, list["RDD"]]:
        """Per-dataset consumer lists (the fusion planner's children map)."""
        consumers: dict[int, list["RDD"]] = {}
        for r in final_rdd.ctx.all_rdds():
            for dep in r.deps:
                consumers.setdefault(dep.parent.rdd_id, []).append(r)
        return consumers

    def _len_only(self, rdd: "RDD", consumers: dict[int, list["RDD"]]) -> bool:
        """True when the replay only ever needs this node's cardinality.

        Mirrors ``FusionPlanner._plan``'s mid conditions plus the consumer
        continuation: such a node is always elided inside a fused chain,
        so the charge loop reads its n_out and never its elements.  A
        misclassification is only an oracle miss (local compute), never a
        correctness issue.
        """
        if (
            type(rdd) is not MapPartitionsRDD
            or rdd.elem_op is None
            or rdd.size_weigher is not None
            or not self.driver.cache_manager.will_never_store(rdd)
        ):
            return False
        kids = consumers.get(rdd.rdd_id, ())
        if len(kids) != 1:
            return False
        consumer = kids[0]
        return type(consumer) is MapPartitionsRDD and (
            consumer.elem_op is not None or consumer.streamable
        )

    # ------------------------------------------------------------------
    # Replay-side oracle lookups
    # ------------------------------------------------------------------
    def speculated(self, rdd: "RDD", split: int):
        """Worker result for an unfused compute, or None.

        Returns ``(out, merge_counts)`` with one count per shuffle dep —
        all must be covered, since the replay substitutes the fetch with
        ``charge_fetch`` and needs the merged cardinality for ``n_in``.
        """
        out = self.oracle.data.get((rdd.rdd_id, split))
        if out is None:
            self.oracle_misses += 1
            return None
        counts = []
        for dep in rdd.shuffle_deps:
            count = self.oracle.merge_counts.get((dep.shuffle_id, split))
            if count is None:
                self.oracle_misses += 1
                return None
            counts.append(count)
        self.oracle_hits += 1
        return out, counts

    def speculated_fused(self, chain: "FusedChain", split: int):
        """Worker result for a fused chain, or None.

        Returns ``(top_out, stage_n_outs)`` with cardinalities in the
        charge loop's deepest-first order.  Only consulted after the
        kernel path declines, so the kernel-vs-pipeline choice (and its
        counters) is untouched by sharding.
        """
        out = self.oracle.data.get((chain.top.rdd_id, split))
        if out is None:
            self.oracle_misses += 1
            return None
        stage_n_outs = []
        for mid in reversed(chain.mids):
            n_out = self.oracle.lens.get((mid.rdd_id, split))
            if n_out is None:
                self.oracle_misses += 1
                return None
            stage_n_outs.append(n_out)
        self.oracle_hits += 1
        return out, stage_n_outs

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Detach from the driver and tear down transport resources."""
        self.transport.shutdown()
        self.cluster.clock.remove_listener(self._clock_listener)
        self.cluster.directory.disable_journal()
        if self.driver.shard is self:
            self.driver.shard = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardCoordinator {self.plan!r} hits={self.oracle_hits} "
            f"misses={self.oracle_misses}>"
        )
