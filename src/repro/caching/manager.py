"""The baseline (Spark-like) cache manager.

Implements the three *separate* operational layers exactly as the paper
describes existing systems (section 2.3):

- caching layer: blindly follows user ``cache()`` annotations, at dataset
  granularity (every partition of an annotated RDD is cached);
- eviction layer: a pluggable history/lineage-based policy (LRU by
  default; LRC, MRD, etc.);
- recovery layer: fixed per storage mode — recompute (``MEM_ONLY``) or
  read back from disk (``MEM_AND_DISK`` / Alluxio-like).

The cost-agnostic, layer-by-layer behaviour here is the foil against which
Blaze's unified decision layer is evaluated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..cluster.blocks import Block
from ..cluster.cachemanager import CacheManager
from ..dataflow.dag import job_reference_sets
from ..metrics.collector import TaskMetrics
from ..obs.audit import CandidateTerm
from ..service.tenancy import take_tiered
from ..tracing.tracer import executor_pid
from .mrd import _NO_FUTURE_USE
from .policy import EvictionPolicy, make_policy
from .storage_level import StorageMode
from .tinylfu import TinyLFUPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.cluster import Cluster
    from ..cluster.executor import Executor
    from ..dataflow.dag import Job, Stage
    from ..dataflow.rdd import RDD


class SparkCacheManager(CacheManager):
    """Annotation-driven caching with a pluggable eviction policy."""

    def __init__(
        self,
        storage_mode: StorageMode = StorageMode.MEM_ONLY,
        policy: str = "lru",
        **policy_kwargs,
    ) -> None:
        super().__init__()
        self.storage_mode = storage_mode
        self.policy_name = policy
        self.policy_kwargs = dict(policy_kwargs)
        self.name = f"spark[{storage_mode.value},{policy}]"
        self._policies: dict[int, EvictionPolicy] = {}
        self._materialized_ids: set[int] = set()

    def attach(self, cluster: "Cluster") -> None:
        super().attach(cluster)
        # Fresh per-run state: attaching to a new cluster must not carry
        # policy histories or materialization knowledge from a prior run.
        self._materialized_ids = set()
        self._policies = {
            ex.executor_id: make_policy(self.policy_name, **self.policy_kwargs)
            for ex in cluster.executors
        }

    def policy_for(self, executor: "Executor") -> EvictionPolicy:
        return self._policies[executor.executor_id]

    def on_executor_added(self, executor: "Executor") -> None:
        # Elastic scale-up: a parked executor rejoining keeps its policy
        # (histories persist across park/rejoin); a fresh one starts cold —
        # it missed earlier job-reference broadcasts, which is exactly the
        # cold-start a real late-joining node would have.
        self._policies.setdefault(
            executor.executor_id,
            make_policy(self.policy_name, **self.policy_kwargs),
        )

    # ------------------------------------------------------------------
    def is_cache_candidate(self, rdd: "RDD") -> bool:
        return rdd.is_annotated_cached

    def will_never_store(self, rdd: "RDD") -> bool:
        # Annotation-driven caching: an unannotated dataset never reaches
        # handle_cache at all, so the engine may pipeline through it.
        return not rdd.is_annotated_cached

    # ------------------------------------------------------------------
    def on_job_submit(self, job: "Job") -> None:
        ref_sets = [
            (seq, [r.rdd_id for r in refs])
            for seq, refs in job_reference_sets(job, self._materialized_ids)
        ]
        for _seq, ids in ref_sets:
            self._materialized_ids.update(ids)
        for policy in self._policies.values():
            policy.on_job_submit(job)
            policy.on_job_references(ref_sets)
        # MRD prefetches "whenever free space becomes available"; the job
        # boundary is where reference distances for this job's data first
        # become known.
        self._run_prefetches(job.job_id)

    def on_stage_complete(self, stage: "Stage") -> None:
        for policy in self._policies.values():
            policy.on_stage_complete(stage)
        self._run_prefetches(stage.job.job_id if stage.job is not None else -1)

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
        bm = executor.bm
        policy = self.policy_for(executor)
        now = self.cluster.clock.now
        tenancy = self.cluster.tenancy
        block = self._new_block(rdd, split, data, size_bytes)
        if isinstance(policy, TinyLFUPolicy):
            policy.record_candidate(rdd.rdd_id)

        if size_bytes > bm.memory.capacity_bytes:
            # Too big for the memory store outright.
            if self.storage_mode.spills_to_disk:
                bm.insert_disk(block, tm, include_ser=True)
            if self.audit is not None:
                self._audit_decision(
                    executor, block,
                    outcome="disk" if self.storage_mode.spills_to_disk else "drop",
                    reason="too_big",
                )
            return

        needed = size_bytes - bm.memory.free_bytes
        if tenancy is not None and tenancy.quotas_active:
            # Quota mode leads the pluggable policy's order with the
            # fairness tiers (see docs/service.md): within a tier, victims
            # go in the order ``EvictionPolicy.select_victims`` sorts by.
            # Never reached on legacy single-tenant runs.
            tier_of, own_need = tenancy.victim_tiers(
                self.cluster, block.tenant, size_bytes
            )
            victims, _scanned = take_tiered(
                sorted(
                    bm.memory.blocks(),
                    key=lambda b: (
                        policy.victim_priority(b, now), b.policy_data.get("seq", 0)
                    ),
                ),
                needed, rdd.rdd_id, tier_of, block.tenant, own_need,
            )
        else:
            tier_of = None
            victims = policy.select_victims(bm.memory, needed, rdd.rdd_id, now)
        if victims is None or not policy.admit(size_bytes, rdd.rdd_id, victims):
            # Cannot (or should not) displace residents: fall back to disk
            # when the mode has one, otherwise give up caching.
            reason = "no_victims" if victims is None else "not_admitted"
            if self.tracer.enabled:
                self.tracer.instant(
                    "cache.reject", "cache",
                    pid=executor_pid(executor.executor_id),
                    rdd=rdd.rdd_id, split=split, bytes=size_bytes,
                    reason=reason,
                )
            if self.storage_mode.spills_to_disk:
                bm.insert_disk(block, tm, include_ser=True)
            if self.audit is not None:
                self._audit_decision(
                    executor, block,
                    outcome="disk" if self.storage_mode.spills_to_disk else "drop",
                    reason=reason,
                    candidates=self._audit_candidates(victims or (), tier_of),
                )
            return

        pre = self._audit_candidates(victims, tier_of) if self.audit is not None else ()
        victim_state = "disk" if self.storage_mode.spills_to_disk else "gone"
        states = []
        for victim in victims:
            policy.on_remove(victim)
            states.append(self._evict(
                bm, victim.block_id, victim_state, tm,
                include_ser=not self.storage_mode.serialized_in_memory,
            ))

        if self.storage_mode.serialized_in_memory:
            bm.charge_memory_ser(block, tm)
        bm.insert_memory(block)
        block.touch(now)
        policy.on_insert(block, now)
        if self.audit is not None:
            self._audit_decision(
                executor, block, outcome="memory",
                reason="displaced" if victims else "free_space",
                candidates=pre, states=states,
            )

    # ------------------------------------------------------------------
    def _audit_candidates(self, victims, tier_of=None) -> tuple[CandidateTerm, ...]:
        # The baseline manager has no cost model: candidates carry their
        # recency and, under quotas, the fairness tier they were taken from.
        return tuple(
            CandidateTerm(
                rdd_id=v.rdd_id, split=v.split, size_bytes=v.size_bytes,
                tier=None if tier_of is None else tier_of(v),
                last_access=v.last_access,
            )
            for v in victims
        )

    # ------------------------------------------------------------------
    def on_memory_hit(self, executor: "Executor", block: Block, tm: TaskMetrics) -> None:
        if self.storage_mode.serialized_in_memory:
            executor.bm.charge_memory_deser(block, tm)
        self.policy_for(executor).on_access(block, self.cluster.clock.now)

    def on_disk_hit(self, executor: "Executor", block: Block, tm: TaskMetrics) -> None:
        """Promote-on-read: disk values re-enter memory when space allows.

        Mirrors Spark's ``maybeCacheDiskValuesInMemory`` — no extra I/O is
        charged because the reading task already deserialized the block.
        """
        if self.storage_mode.spills_to_disk:
            promoted = executor.bm.promote_to_memory(block.block_id)
            if promoted is not None:
                now = self.cluster.clock.now
                if self.storage_mode.serialized_in_memory:
                    executor.bm.charge_memory_ser(block, tm)
                self.policy_for(executor).on_insert(promoted, now)
                promoted.touch(now)

    def on_block_removed(self, executor: "Executor", block: Block) -> None:
        self.policy_for(executor).on_remove(block)

    # ------------------------------------------------------------------
    def _run_prefetches(self, job_id: int) -> None:
        """MRD prefetch: pull the nearest-next-use disk blocks into memory.

        Runs at job and stage boundaries.  The read I/O counts toward the
        accumulated task time, but overlaps the ongoing computation rather
        than delaying the executor's next tasks — the latency-hiding that
        is prefetching's point.
        """
        for executor in self.cluster.executors:
            policy = self.policy_for(executor)
            if not policy.wants_prefetch:
                continue
            bm = executor.bm
            now = self.cluster.clock.now
            candidates = sorted(
                bm.disk.blocks(), key=lambda b: policy.prefetch_priority(b, now)
            )
            tm = TaskMetrics()
            moved = False
            for block in candidates:
                if policy.prefetch_priority(block, now) >= _NO_FUTURE_USE:
                    break
                if not bm.memory.fits(block.size_bytes):
                    break
                promoted = self._prefetch(executor, block.block_id, tm)
                if promoted is None:  # pragma: no cover - fits() guarded above
                    break
                policy.on_insert(promoted, now)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "cache.prefetch", "cache",
                        pid=executor_pid(executor.executor_id),
                        rdd=promoted.rdd_id, split=promoted.split,
                        bytes=promoted.size_bytes,
                    )
                moved = True
            if moved:
                self.cluster.metrics.record_task(job_id, executor.executor_id, tm)
