"""The Unified Decision Layer (UDL): Blaze's cache manager.

One component makes all three layers' decisions from one cost model
(paper sections 4, 5.5, 5.6):

- *caching* — automatic, annotation-free, at partition granularity: a
  freshly produced partition is cached only if it has future references
  and (under admission control) its potential recovery cost beats that of
  the residents it would displace;
- *eviction* — victims are chosen by smallest potential-cost density and
  each victim individually lands in the cheaper of disk and "recompute
  later" states;
- *recovery* — handled by the engine (disk read or lineage recomputation);
  a partition read back from disk is re-considered for memory admission;
- *ILP* — on every job submission, the partition states for the upcoming
  horizon are re-optimized per executor and blocks are migrated to match.

The ablation variants of Fig. 11 (+AutoCache, +CostAware) are this same
class on a lower rung of :attr:`~repro.config.BlazeConfig.rung`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..cluster.blocks import Block, BlockId, BlockLocation
from ..cluster.cachemanager import CacheManager
from ..config import BlazeConfig
from ..metrics.collector import TaskMetrics
from ..obs.audit import CandidateTerm, make_terms
from ..tracing.tracer import executor_pid
from .cost_lineage import CostLineage, capture_job
from .cost_model import CostModel, PartitionState
from .decision_cache import DecisionCostCache, VictimIndex
from .ilp import IlpItem, solve_partition_states
from .profiler import LineageProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.cluster import Cluster
    from ..cluster.executor import Executor
    from ..dataflow.dag import Job, JobStream, Stage
    from ..dataflow.rdd import RDD


#: §5.5 re-solves with updated recomputation costs until the memory set is
#: stable, at most this many rounds (cost_r depends on residency).
ILP_REFINEMENT_ROUNDS = 3


class BlazeCacheManager(CacheManager):
    """Unified cost-aware caching, eviction, and recovery decisions."""

    def __init__(
        self,
        config: BlazeConfig | None = None,
        profile: LineageProfile | None = None,
    ) -> None:
        super().__init__()
        self.config = config or BlazeConfig()
        self.profile = profile
        # Induction always runs: even without the profiling phase, Blaze
        # "builds the application lineage on the run" (§7.5) and projects
        # the detected iteration pattern forward.  The profiling phase's
        # advantage is knowing the whole structure from job 0.
        self.lineage = CostLineage(induction_enabled=True)
        self.cost_model: CostModel | None = None
        #: dataset ids produced so far (first-touch-aware closure pruning)
        self._materialized_ids: set[int] = set()
        #: the epoch cost memo + per-executor victim order (bound in attach)
        self._cache: DecisionCostCache | None = None
        self._indexes: dict[int, VictimIndex] = {}
        self.name = self._variant_name()

    def _variant_name(self) -> str:
        cfg = self.config
        if cfg.rung != "full":
            return f"blaze[+{cfg.rung}]"
        if not cfg.ilp_enabled:
            return "blaze[-ilp]"
        if not cfg.disk_enabled:
            return "blaze[mem-only]"
        if self.profile is None:
            return "blaze[no-profiling]"
        return "blaze"

    def attach(self, cluster: "Cluster") -> None:
        super().attach(cluster)
        # Price the tiers this cluster has: the remote pool exists only
        # when the context was given a scale schedule.
        self.cost_model = CostModel(
            self.lineage, cluster.config.disk, cluster.remote_config
        )
        if self.profile is not None:
            self.profile.seed(self.lineage)
        self._cache = DecisionCostCache(
            self.lineage, self.cost_model, self._future_state_of, cluster.metrics
        )
        for executor in cluster.executors:
            self.on_executor_added(executor)

    def detach(self) -> None:
        if self.cluster is not None:
            for executor in self.cluster.executors:
                executor.bm.remove_residency_listener(self)
        self._cache = None
        self._indexes = {}
        super().detach()

    # ------------------------------------------------------------------
    # Residency listener (BlockManager callbacks) + the victim order
    # ------------------------------------------------------------------
    def _index_key_fn(self):
        """The victim ordering for this rung, as ``block -> key``.

        Full Blaze orders by weighted potential cost per byte, +CostAware by
        potential disk access cost (§7.3), +AutoCache by recency (LRU).
        """
        cache = self._cache
        rung = self.config.rung
        if rung == "autocache":
            return lambda b: b.last_access
        if rung == "costaware":
            return lambda b: self.cost_model.cost_d(b.rdd_id, b.split, cache.scratch())

        def density(b: Block) -> float:
            if b.size_bytes <= 0:
                return float("inf")  # frees nothing: last victim
            return cache.block_value(b) / b.size_bytes

        return density

    def _residency_changed(self, executor_id: int, block: Block) -> None:
        # Residency feeds every recovery cost: the decision epoch ends.
        self._cache.touch()

    memory_added = memory_removed = disk_changed = _residency_changed

    def predicted_recovery_cost(
        self, rdd_id: int, split: int, state: str
    ) -> float | None:
        """Eq. 3 / Eq. 4 predictions for the fault layer's calibration.

        Evaluated against the *current* residency snapshot (``_state_of``),
        because the measured recovery runs right now — unlike admission
        decisions, which price a hypothetical future miss.
        """
        if self.cost_model is None:
            return None
        if state == "disk":
            return self.cost_model.cost_d(rdd_id, split, {})
        if state == "remote":
            return self.cost_model.cost_remote(rdd_id, split, {})
        return self.cost_model.cost_r(rdd_id, split, self._state_of, {})

    def on_remote_hit(self, executor: "Executor", block: Block, tm: TaskMetrics) -> None:
        """A remote-tier read promotes into free memory (never displaces).

        The block already sits in a fast tier; paying evictions to pull it
        closer rarely wins, so promotion is opportunistic — mirroring the
        promote-on-read ablation, for every variant.  The promoted copy
        lands on the reading executor; the pool copy is consumed.
        """
        if self.lineage.future_refs(block.rdd_id, inclusive=True) <= 0:
            return
        if executor.bm.memory.fits(block.size_bytes):
            promoted = executor.bm.promote_from_remote(block.block_id)
            if promoted is not None:
                promoted.touch(self.cluster.clock.now)

    # ------------------------------------------------------------------
    # Fleet membership (elastic scale events)
    # ------------------------------------------------------------------
    def on_executor_added(self, executor: "Executor") -> None:
        """Wire decision state for an executor joining the fleet.

        Parked executors re-activating keep their index and listener from
        the original attach; only genuinely new executors need wiring.
        """
        if executor.executor_id in self._indexes:
            return
        self._indexes[executor.executor_id] = VictimIndex(
            self._index_key_fn(), executor.bm.memory, self.cluster.metrics
        )
        executor.bm.add_residency_listener(self)

    def on_fleet_changed(self) -> None:
        """The home-executor mapping feeds ``_state_of``: the epoch ends."""
        self._cache.touch()

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def _state_of(self, rdd_id: int, split: int) -> PartitionState:
        """Current residency of a partition (home-executor lookup).

        The remote-memory pool is consulted after the home executor's
        tiers; with the elastic tier off the pool is ``None`` and the
        answer is identical to the historical two-tier lookup.
        """
        executor = self.cluster.executor_for(split)
        loc = executor.bm.location_of((rdd_id, split))
        if loc is BlockLocation.MEMORY:
            return "mem"
        if loc is BlockLocation.DISK:
            return "disk"
        if self.cluster.remote_block((rdd_id, split)) is not None:
            return "remote"
        return "gone"

    def _future_state_of(self, rdd_id: int, split: int) -> PartitionState:
        """Residency expected when a *future* recovery would run.

        Potential recovery costs describe a future cache miss, and by then
        any ancestor without remaining references will have been
        auto-unpersisted — so memory residency only counts for datasets
        that still have future uses.  Evaluating Eq. 4 against the current
        snapshot instead systematically underestimates recomputation
        chains (the dynamic-dependency trap of §4.3).
        """
        state = self._state_of(rdd_id, split)
        if state == "mem" and self.lineage.future_refs(rdd_id, inclusive=False) == 0:
            return "gone"
        return state

    # ------------------------------------------------------------------
    # Caching layer: candidates come from future references, not the user
    # ------------------------------------------------------------------
    def is_cache_candidate(self, rdd: "RDD") -> bool:
        if self.lineage.future_refs(rdd.rdd_id, inclusive=True) > 0:
            return True
        # While lineage knowledge is incomplete (truncated profile, cycle
        # not yet detected), fall back to the user's annotations rather
        # than assuming "no known reference" means "no reuse".
        return rdd.is_annotated_cached and not self.lineage.refs_exhaustive(rdd.rdd_id)

    def will_never_store(self, rdd: "RDD") -> bool:
        # Mirrors handle_cache's admission preamble: a non-candidate never
        # reaches it, and a candidate with no exclusive future references
        # takes the "no reuse ahead" early return — unless the annotation
        # fallback under incomplete knowledge could still place it.
        if not self.is_cache_candidate(rdd):
            return True
        if self.lineage.future_refs(rdd.rdd_id, inclusive=False) > 0:
            return False
        return not rdd.is_annotated_cached or self.lineage.refs_exhaustive(rdd.rdd_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_stream_open(self, stream: "JobStream") -> None:
        self.lineage.open_stream(stream, stream.name)

    def on_stream_close(self, stream: "JobStream") -> None:
        self.lineage.close_stream(stream)

    def on_job_submit(self, job: "Job") -> None:
        # Everything below is on the application's own job axis: reference
        # events, the position, the ILP window.  ``job.job_id`` (fleet-wide)
        # only labels traces and metrics.
        self.lineage.activate(job.stream)
        for rdd in job.lineage_rdds():
            self.lineage.register_rdd(
                rdd.rdd_id,
                tuple(p.rdd_id for p in rdd.parents),
                rdd.num_partitions,
                name=rdd.name,
                ser_factor=rdd.size_model.ser_factor,
            )
        shuffle = self.cluster.shuffle

        def skipped(stage: "Stage") -> bool:
            return not stage.is_result and shuffle.is_complete(stage.shuffle_dep)

        self.lineage.ingest_capture(
            capture_job(job, is_stage_skipped=skipped, materialized=self._materialized_ids)
        )
        self.lineage.set_position(job.seq_in_stream, 0)
        self.lineage.predict_through(job.seq_in_stream + self.config.ilp_horizon_jobs)
        if self.config.rung == "full" and self.config.ilp_enabled:
            self._run_ilp(job)

    def on_stage_start(self, stage: "Stage") -> None:
        job_seq = stage.job.seq_in_stream if stage.job is not None else 0
        self.lineage.set_position(job_seq, stage.seq_in_job)

    def on_stage_complete(self, stage: "Stage") -> None:
        job_seq = stage.job.seq_in_stream if stage.job is not None else 0
        self.lineage.set_position(job_seq, stage.seq_in_job + 1)
        self._auto_unpersist()

    def _auto_unpersist(self) -> None:
        """Drop every cached partition with no remaining references (§5.6).

        "No remaining references" is the count over every open stream, and
        only trusted for datasets whose streams know their future
        (truncated profile, pre-cycle-detection: zero known references is
        not evidence of no future use, and wrongly unpersisting reused
        data costs a full regeneration).

        Runs at every stage end and usually finds nothing, so the question
        is asked per resident *dataset* first; blocks are then discarded in
        store order (memory insertion order, then disk), dead datasets
        interleaved exactly as a walk over every cached block would.
        """
        lineage = self.lineage
        for executor in self.cluster.executors:
            bm = executor.bm
            dead = {
                rdd_id
                for store in (bm.memory, bm.disk)
                for rdd_id in store.resident_rdd_ids()
                if lineage.future_refs(rdd_id, inclusive=True) == 0
                and lineage.refs_exhaustive(rdd_id)
            }
            if not dead:
                continue
            for store in (bm.memory, bm.disk):
                for block in [b for b in store.blocks() if b.rdd_id in dead]:
                    bm.discard(block.block_id, evicted=False)

    # ------------------------------------------------------------------
    # Metric feed
    # ------------------------------------------------------------------
    def on_partition_computed(
        self,
        rdd: "RDD",
        split: int,
        n_in: int,
        n_out: int,
        compute_seconds: float,
        size_weight: float,
    ) -> None:
        self.lineage.observe_partition(
            rdd.rdd_id,
            split,
            size_bytes=rdd.size_model.bytes_for(size_weight),
            compute_seconds=compute_seconds,
        )
        self._cache.touch()

    # ------------------------------------------------------------------
    # Admission + eviction (the unified decision, §4.1 / §4.2)
    # ------------------------------------------------------------------
    def handle_cache(
        self,
        executor: "Executor",
        rdd: "RDD",
        split: int,
        data: list[Any],
        size_bytes: float,
        tm: TaskMetrics,
    ) -> None:
        remaining_refs = self.lineage.future_refs(rdd.rdd_id, inclusive=False)
        if remaining_refs <= 0:
            if not rdd.is_annotated_cached or self.lineage.refs_exhaustive(rdd.rdd_id):
                return  # no reuse ahead: never worth any storage
            # Under incomplete knowledge the user's ``.cache()`` is one
            # promised reference, priced like a known one.
            remaining_refs = 1
        block = self._new_block(rdd, split, data, size_bytes)
        self._admit(executor, block, remaining_refs, tm, from_disk=False)

    def on_disk_hit(self, executor: "Executor", block: Block, tm: TaskMetrics) -> None:
        """A recovered partition becomes a caching candidate again (§4.1)."""
        refs = self.lineage.future_refs(block.rdd_id, inclusive=True)
        if refs <= 0:
            return
        if self.config.rung != "full":
            # Rungs without the unified admission comparison promote only
            # into free space (plain Spark's promote-on-read), since
            # displacing residents without a cost check amplifies thrash.
            if executor.bm.memory.fits(block.size_bytes):
                self._place_in_memory(executor.bm, block, True, self.cluster.clock.now)
            return
        self._admit(executor, block, refs, tm, from_disk=True)

    # ------------------------------------------------------------------
    # Decision audit capture (``repro.obs``): pure readers of the same
    # pre-eviction snapshot every decision above consulted.  Cost probes
    # go through the epoch memo: reads may fill it, but never change a
    # value or a decision.
    # ------------------------------------------------------------------
    def _audit_candidates(
        self, victims: list[Block], tier_of=None
    ) -> tuple[CandidateTerm, ...]:
        cost_aware = self.config.rung != "autocache"
        out = []
        for v in victims:
            cost_d = cost_r = pc = None
            if cost_aware:
                cost_d, cost_r, pc = self._cache.explain_costs(v.rdd_id, v.split)
            out.append(
                CandidateTerm(
                    rdd_id=v.rdd_id,
                    split=v.split,
                    size_bytes=v.size_bytes,
                    tier=None if tier_of is None else tier_of(v),
                    cost_d=cost_d,
                    cost_r=cost_r,
                    potential_cost=pc,
                    last_access=None if cost_aware else v.last_access,
                )
            )
        return tuple(out)

    def _audit_admission(
        self,
        executor: "Executor",
        block: Block,
        refs: int,
        *,
        from_disk: bool,
        outcome: str,
        reason: str,
        candidates: tuple = (),
        states: list | tuple = (),
        incoming_value: float | None = None,
        displaced_value: float | None = None,
    ) -> None:
        self._audit_decision(
            executor, block, outcome=outcome, reason=reason,
            candidates=candidates, states=states,
            terms=make_terms(
                refs=float(refs),
                from_disk=float(from_disk),
                incoming_value=incoming_value,
                displaced_value=displaced_value,
            ),
        )

    def _ilp_observer(self, executor_id: int, job_id: int, round_idx: int):
        def observer(items, solution) -> None:
            self.audit.record(
                ts=self.cluster.clock.now,
                kind="ilp",
                executor_id=executor_id,
                outcome="solved",
                reason=f"round_{round_idx}",
                terms=make_terms(
                    job_id=float(job_id),
                    round=float(round_idx),
                    items=float(len(items)),
                    nodes_explored=float(solution.nodes_explored),
                    objective=solution.objective,
                    optimal=float(solution.optimal),
                ),
                candidates=tuple(
                    CandidateTerm(
                        rdd_id=it.key[0],
                        split=it.key[1],
                        size_bytes=it.size_bytes,
                        cost_d=it.cost_d,
                        cost_r=it.cost_r,
                        potential_cost=min(it.cost_d, it.cost_r),
                        chosen_state=(
                            None
                            if solution.states.get(it.key) == "mem"
                            else solution.states.get(it.key)
                        ),
                    )
                    for it in items
                ),
            )

        return observer

    # ------------------------------------------------------------------
    def _admit(
        self,
        executor: "Executor",
        block: Block,
        refs: int,
        tm: TaskMetrics,
        from_disk: bool,
    ) -> None:
        """The unified admission decision (§4.1 / §4.2).

        Selection, the admission comparison and every victim's eviction
        state all read one *pre-eviction* snapshot, so every value is
        resolved before the first eviction mutates residency.
        """
        bm = executor.bm
        cache = self._cache
        now = self.cluster.clock.now
        audit = self.audit
        if block.size_bytes > bm.memory.capacity_bytes:
            self._deny_memory(executor, block, refs, tm, from_disk, "too_big")
            return

        tenancy = self.cluster.tenancy
        quota_mode = tenancy is not None and tenancy.quotas_active
        needed = block.size_bytes - bm.memory.free_bytes
        # Under quotas free space alone does not admit: the inserter may
        # first have to displace its own blocks to stay within quota.
        if needed <= 0 and not (
            quota_mode
            and tenancy.would_exceed(self.cluster, tenancy.current_tenant, block.size_bytes)
        ):
            self._place_in_memory(bm, block, from_disk, now)
            if audit is not None:
                self._audit_admission(
                    executor, block, refs, from_disk=from_disk,
                    outcome="memory", reason="free_space",
                )
            return

        index = self._indexes[executor.executor_id]
        tier_of = None
        if quota_mode:
            tenant = tenancy.current_tenant
            tier_of, own_need = tenancy.victim_tiers(
                self.cluster, tenant, block.size_bytes
            )
            victims, scanned = index.select_tiered(
                max(needed, 0.0), block.rdd_id, tier_of, tenant, own_need
            )
        else:
            victims, scanned = index.select(needed, block.rdd_id)
        metrics = self.cluster.metrics
        metrics.victim_candidates_scanned += scanned
        metrics.victim_selections += 1
        if victims is None:
            self._deny_memory(executor, block, refs, tm, from_disk, "no_victims")
            return

        incoming_value = displaced_value = None
        if self.config.rung == "full":
            incoming_value = cache.potential_cost(block.rdd_id, block.split) * refs
            displaced_value = sum(cache.block_value(v) for v in victims)
            if displaced_value >= incoming_value:
                # Keeping the residents saves more: do not cache in memory.
                if self.tracer.enabled:
                    self.tracer.instant(
                        "cache.reject", "cache",
                        pid=executor_pid(executor.executor_id),
                        rdd=block.rdd_id, split=block.split,
                        bytes=block.size_bytes, reason="admission",
                        incoming_value=incoming_value,
                        displaced_value=displaced_value,
                    )
                self._deny_memory(
                    executor, block, refs, tm, from_disk, "admission",
                    victims=victims, tier_of=tier_of,
                    incoming_value=incoming_value, displaced_value=displaced_value,
                )
                return

        # Resolve every victim's destination on the pre-eviction snapshot,
        # then execute (each eviction ends the epoch behind us).
        pre = self._audit_candidates(victims, tier_of) if audit is not None else ()
        plans = [self._eviction_plan(victim) for victim in victims]
        states = [
            self._evict(bm, victim.block_id, plan, tm)
            for victim, plan in zip(victims, plans)
        ]
        self._place_in_memory(bm, block, from_disk, now)
        if audit is not None:
            self._audit_admission(
                executor, block, refs, from_disk=from_disk,
                outcome="memory", reason="displaced",
                candidates=pre, states=states,
                incoming_value=incoming_value, displaced_value=displaced_value,
            )

    def _deny_memory(
        self, executor: "Executor", block: Block, refs: int, tm: TaskMetrics,
        from_disk: bool, reason: str, victims=(), tier_of=None, **values,
    ) -> None:
        """A candidate denied memory may still be worth a disk write.

        From disk it simply stays there; a fresh partition lands there
        only if :meth:`_maybe_write_to_disk` bites.  ``victims`` are the
        residents the admission comparison kept, for the audit log.
        """
        placed = from_disk or self._maybe_write_to_disk(executor, block, tm)
        if self.audit is not None:
            self._audit_admission(
                executor, block, refs, from_disk=from_disk,
                outcome="disk" if placed else "drop", reason=reason,
                candidates=self._audit_candidates(victims, tier_of), **values,
            )

    def _eviction_plan(self, victim: Block) -> PartitionState:
        """The state a memory victim is cheapest in (§4.2)."""
        if not self.config.disk_enabled:
            return "gone"
        if self.config.rung != "full":
            return "disk"
        if (
            self.lineage.future_refs(victim.rdd_id, inclusive=False) == 0
            and self.lineage.refs_exhaustive(victim.rdd_id)
        ):
            # No references beyond the currently executing stage: disk
            # persistence buys nothing after this stage, and any remaining
            # same-stage readers recover through the (still retained)
            # current shuffle generation cheaply.  Discard.
            return "gone"
        return self._cache.preferred_state(victim.rdd_id, victim.split)

    def _place_in_memory(self, bm, block: Block, from_disk: bool, now: float) -> None:
        if from_disk:
            promoted = bm.promote_to_memory(block.block_id)
            if promoted is not None:
                promoted.touch(now)
        else:
            bm.insert_memory(block)
            block.touch(now)

    def _maybe_write_to_disk(self, executor: "Executor", block: Block, tm: TaskMetrics) -> bool:
        """A partition denied memory may still be worth persisting on disk.

        Returns ``True`` iff the block was written to disk.
        """
        if not self.config.disk_enabled:
            return False
        if self.config.rung != "full":
            executor.bm.insert_disk(block, tm)
            return True
        state = self._cache.preferred_state(block.rdd_id, block.split)
        if state == "disk":
            executor.bm.insert_disk(block, tm)
            return True
        if state == "remote":
            if not executor.bm.insert_remote(block, tm):
                executor.bm.insert_disk(block, tm)
            return True
        return False

    # ------------------------------------------------------------------
    # The ILP trigger (§5.5): re-optimize states for the upcoming jobs
    # ------------------------------------------------------------------
    def _run_ilp(self, job: "Job") -> None:
        cfg = self.config
        horizon_first = job.seq_in_stream
        horizon_last = horizon_first + cfg.ilp_horizon_jobs - 1
        # references within the horizon, per dataset (residency-independent)
        weights: dict[int, int] = {}
        for executor in self.cluster.executors:
            # What the refinement rounds do not change: each block's horizon
            # weight and Eq. 3 cost, and the memory held by blocks the
            # horizon never touches.
            sizes: dict = {}
            weighted, reserved = [], 0.0
            for block in executor.bm.cached_blocks():
                weight = weights.get(block.rdd_id)
                if weight is None:
                    weight = weights[block.rdd_id] = self.lineage.refs_in_window(
                        block.rdd_id, horizon_first, horizon_last
                    )
                if weight == 0 or block.size_bytes <= 0:
                    # No use within the horizon, or an empty partition that
                    # holds no memory: leave the block where it is
                    # (total-future-ref accounting handles it).
                    if executor.bm.location_of(block.block_id) is BlockLocation.MEMORY:
                        reserved += block.size_bytes
                    continue
                cost_d = self.cost_model.cost_d(block.rdd_id, block.split, sizes)
                weighted.append((block, float(weight), cost_d))
            if not weighted:
                continue
            planned: dict[BlockId, PartitionState] = {}
            for _round in range(ILP_REFINEMENT_ROUNDS):
                state_fn = self._hypothetical_state_fn(planned)
                memo = dict(sizes)
                items = [
                    IlpItem(
                        key=block.block_id,
                        size_bytes=block.size_bytes,
                        cost_d=cost_d,
                        cost_r=self.cost_model.cost_r(
                            block.rdd_id, block.split, state_fn, memo
                        ),
                        weight=weight,
                    )
                    for block, weight, cost_d in weighted
                ]
                capacity = max(executor.bm.memory.capacity_bytes - reserved, 0.0)
                observer = (
                    self._ilp_observer(executor.executor_id, job.job_id, _round)
                    if self.audit is not None
                    else None
                )
                solution = solve_partition_states(
                    items, capacity, observer=observer
                )
                self.cluster.metrics.ilp_solves += 1
                self.cluster.metrics.ilp_nodes += solution.nodes_explored
                if self.tracer.enabled:
                    self.tracer.instant(
                        "ilp.solve", "ilp",
                        executor=executor.executor_id, job_id=job.job_id,
                        round=_round, items=len(items),
                    )
                if solution.states == planned:
                    break
                planned = solution.states
            if planned:
                self._apply_ilp_states(executor, planned, job.job_id)

    def _hypothetical_state_fn(self, planned: dict[BlockId, PartitionState]):
        if not planned:
            return self._state_of

        def state_fn(rdd_id: int, split: int) -> PartitionState:
            return planned.get((rdd_id, split)) or self._state_of(rdd_id, split)

        return state_fn

    def _apply_ilp_states(
        self,
        executor: "Executor",
        planned: dict[BlockId, PartitionState],
        job_id: int,
    ) -> None:
        """Migrate blocks to their optimized states.

        The I/O happens between jobs: it occupies the executor (delaying its
        next tasks) and is recorded in the run totals, while the ILP solve
        itself is hidden behind job submission (§5.5).
        """
        bm = executor.bm
        tm = TaskMetrics()
        moved = 0
        # Demotions free memory first.
        for block_id, state in sorted(planned.items()):
            loc = bm.location_of(block_id)
            if (loc is BlockLocation.MEMORY and state != "mem") or (
                loc is BlockLocation.DISK and state == "gone"
            ):
                self._evict(bm, block_id, state, tm)
                moved += 1
        # Promotions fill the freed space (prefetch from disk).
        for block_id, state in sorted(planned.items()):
            if state != "mem" or bm.location_of(block_id) is not BlockLocation.DISK:
                continue
            block = bm.disk.get(block_id)
            if block is None or not bm.memory.fits(block.size_bytes):
                continue
            if self._prefetch(executor, block_id, tm) is not None:
                moved += 1
        now = self.cluster.clock.now
        if tm.total_seconds > 0:
            executor.charge_background(now, tm.total_seconds)
            self.cluster.metrics.record_task(job_id, executor.executor_id, tm)
        self.cluster.metrics.ilp_migrations += moved
        if moved and self.tracer.enabled:
            self.tracer.instant(
                "ilp.migrate", "ilp",
                executor=executor.executor_id, job_id=job_id,
                moved=moved, seconds=tm.total_seconds,
            )
