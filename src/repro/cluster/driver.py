"""The driver: job submission, stage execution, and the cache-aware data path.

This is the execution half of the DAGScheduler.  ``materialize`` is the
single entry point through which every partition is obtained and is where
the three operational layers of the paper meet:

- *caching*: candidate partitions produced by tasks are offered to the
  cache manager (admission, victim selection, victim state);
- *eviction*: performed inside the cache manager via block-manager
  primitives, charged to the task that triggered it (Spark semantics);
- *recovery*: a miss falls back to disk read or recursive recomputation
  through lineage, including re-running upstream map stages when shuffle
  outputs have been cleaned up.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from ..dataflow.dag import Job, JobStream, Stage, build_job
from ..dataflow.dependencies import ShuffleDependency
from ..dataflow.fusion import FusionPlanner
from ..errors import DataflowError
from ..faults.injector import InjectedTaskFailure
from ..metrics.collector import TaskMetrics
from ..storage.columnar import ColumnarBatch
from ..tracing.tracer import executor_pid
from .blocks import Block, BlockId, BlockLocation
from .scheduler import SlotScheduler, TaskSlot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow.rdd import RDD
    from ..faults.injector import FaultInjector
    from .cachemanager import CacheManager
    from .cluster import Cluster
    from .executor import Executor


class Driver:
    """Plans and executes jobs on the simulated cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        cache_manager: "CacheManager",
        fault_injector: "FaultInjector | None" = None,
        columnar=None,
    ) -> None:
        self.cluster = cluster
        self.cache_manager = cache_manager
        #: the service's ColumnarBackend, or None when the columnar plane
        #: is disabled: partitions offered to the cache get encoded as
        #: record batches, and the fusion planner dispatches eligible
        #: chains to its vectorized kernels.
        self.columnar = columnar
        self.metrics = cluster.metrics
        self.tracer = cluster.tracer
        #: the run's fault injector (None on fault-free runs): drives the
        #: task-reattempt loop, shuffle fetch failures, and the
        #: recovery-cost calibration sampling
        self.faults = fault_injector
        self.scheduler = SlotScheduler(cluster.clock, cluster.tracer, fault_injector)
        self.job_log: list[Job] = []
        self._job_ids = itertools.count()
        #: block ids ever admitted to any store — a later materialization of
        #: one of these is a *recovery* and its compute time counts as
        #: recomputation cost.
        self._was_cached: set[BlockId] = set()
        #: per-task scratch (reset in ``_run_stage``): partition data memo
        #: and the memoized ``size_model.bytes_for`` results for it.
        self._task_memo: dict[BlockId, list] = {}
        self._task_size_memo: dict[BlockId, float] = {}
        self._recovery_depth = 0
        self._fusion = FusionPlanner(self)
        #: the shard coordinator (``repro.shard``) when the sharded engine
        #: is on, else None: stages dispatch as supersteps before running,
        #: and ``_compute`` substitutes worker-speculated results.
        self.shard = None
        #: the elastic fleet controller (``repro.elastic``) when a scale
        #: schedule is armed, else None: polled at every stage boundary,
        #: *before* tasks bind to executors for the stage.
        self.fleet = None
        #: hooks run after every completed job (profiler timeout budget)
        self.post_job_hooks: list[Callable[[Job], None]] = []
        cache_manager.attach(cluster)

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_job(
        self,
        final_rdd: "RDD",
        action_fn: Callable[[int, list], Any],
        stream: JobStream | None = None,
    ) -> list:
        """Plan, schedule, and run one action; returns per-partition results.

        ``stream`` is the submitting application's job stream (see
        :class:`~repro.dataflow.dag.JobStream`).
        """
        job = build_job(next(self._job_ids), final_rdd, action_fn, stream)
        job.stages_to_run = self._select_stages(job)
        self.job_log.append(job)
        job_span = self.tracer.begin(
            "job", "job", job_id=job.job_id,
            final_rdd=final_rdd.rdd_id, num_stages=len(job.stages_to_run),
        )
        self.cache_manager.on_job_submit(job)

        results: list = [None] * final_rdd.num_partitions
        for stage in job.stages_to_run:
            if not stage.is_result and self.cluster.shuffle.is_complete(stage.shuffle_dep):
                continue  # skipped stage: shuffle outputs already exist
            if self.fleet is not None:
                # Fleet membership may only change at stage boundaries:
                # _run_stage binds every task to its home executor up front.
                self.fleet.poll(self.cluster.clock.now, job.job_id)
            # Stages are identified by their job-relative sequence: raw
            # stage ids come from a process-global counter and would break
            # byte-identical traces across runs in one process.
            stage_span = self.tracer.begin(
                "stage", "stage", job_id=job.job_id,
                seq=stage.seq_in_job, rdd=stage.rdd.rdd_id,
                num_tasks=stage.num_tasks,
                kind="result" if stage.is_result else "shuffle_map",
            )
            self.cache_manager.on_stage_start(stage)
            self._fusion.begin_stage()
            if self.shard is not None:
                self.shard.prepare_stage(stage)
            self._run_stage(stage, job, results)
            self.cache_manager.on_stage_complete(stage)
            self.tracer.end(stage_span)

        self.cache_manager.on_job_complete(job)
        self.metrics.record_job()
        self.tracer.end(job_span)
        min_keep = job.job_id - self.cluster.config.shuffle_retention_jobs + 1
        self.cluster.shuffle.cleanup_older_than(min_keep)
        for hook in list(self.post_job_hooks):
            hook(job)
        return results

    def _select_stages(self, job: Job) -> list[Stage]:
        """Spark's missing-parent-stage pruning.

        Walk the lineage from the final RDD; a dataset whose partitions are
        all cached truncates the walk (its ancestors will not be touched),
        and a completed shuffle truncates into its map stage.  Only stages
        reachable through actually-missing data are submitted.  Skipping is
        conservative-safe: a stage mispredicted as unnecessary is recovered
        at runtime by the on-demand shuffle recomputation path.
        """
        needed_shuffles: set[int] = set()
        visited: set[int] = set()

        def fully_cached(rdd: "RDD") -> bool:
            if not self.cache_manager.is_cache_candidate(rdd):
                return False
            for split in range(rdd.num_partitions):
                home = self.cluster.executor_for(split)
                if home.bm.location_of((rdd.rdd_id, split)) is None:
                    return False
            return True

        def visit(rdd: "RDD") -> None:
            if rdd.rdd_id in visited:
                return
            visited.add(rdd.rdd_id)
            if fully_cached(rdd):
                return  # tasks will read it; ancestors stay untouched
            for dep in rdd.narrow_deps:
                visit(dep.parent)
            for dep in rdd.shuffle_deps:
                if not self.cluster.shuffle.is_complete(dep):
                    needed_shuffles.add(dep.shuffle_id)
                    visit(dep.parent)

        visit(job.final_rdd)
        return [
            stage
            for stage in job.stages
            if stage.is_result or stage.shuffle_dep.shuffle_id in needed_shuffles
        ]

    def _run_stage(self, stage: Stage, job: Job, results: list) -> None:
        tasks = [
            TaskSlot(split=s, executor=self.cluster.executor_for(s))
            for s in range(stage.num_tasks)
        ]

        faults = self.faults

        def execute(task: TaskSlot) -> float:
            # Reattempt loop: an injected failure re-runs the attempt at
            # the same virtual start (the clock never moves inside a task;
            # SlotScheduler's heap relies on that), with the doomed
            # attempt's wasted time and the retry backoff returned as
            # extra slot occupancy.  Failed-attempt side effects persist
            # (Spark semantics) except what the fault wipe removed; only
            # the final attempt's ledger reaches the metric aggregates.
            start = self.cluster.clock.now
            attempt = 0
            overhead = 0.0
            while True:
                tm = TaskMetrics()
                self._task_memo = {}
                self._task_size_memo = {}
                self._recovery_depth = 0
                try:
                    data = self.materialize(stage.rdd, task.split, task.executor, tm)
                    if stage.is_result:
                        results[task.split] = job.action_fn(task.split, data)
                    else:
                        self.cluster.shuffle.write(
                            stage.shuffle_dep, task.split, data, tm, job.job_id
                        )
                    if faults is not None:
                        faults.check_inflight_crash(
                            task.executor, start, tm.duration_seconds
                        )
                    break
                except InjectedTaskFailure as failure:
                    attempt += 1
                    overhead += faults.on_task_failure(
                        task.executor, stage.seq_in_job, task.split, attempt, failure
                    )
            if faults is not None:
                eid, slot = self.scheduler.current_slot
                overhead += faults.straggler_extra(
                    eid, slot, start, tm.duration_seconds
                )
            self.metrics.record_task(job.job_id, task.executor.executor_id, tm)
            if self.tracer.enabled:
                eid, slot = self.scheduler.current_slot
                fault_args = (
                    {"attempts": attempt, "fault_overhead_s": overhead}
                    if attempt or overhead
                    else {}
                )
                self.tracer.complete(
                    "task", "task",
                    ts=start, dur=tm.duration_seconds + overhead,
                    pid=executor_pid(eid), tid=slot + 1,
                    job_id=job.job_id, stage=stage.seq_in_job, split=task.split,
                    compute_s=tm.compute_seconds,
                    recompute_s=tm.recompute_seconds,
                    shuffle_s=tm.shuffle_read_seconds + tm.shuffle_write_seconds,
                    disk_io_s=tm.disk_io_seconds,
                    remote_read_s=tm.remote_read_seconds,
                    offloaded_s=tm.offloaded_seconds,
                    total_s=tm.total_seconds,
                    **fault_args,
                )
            return tm.duration_seconds + overhead

        self.scheduler.run_stage(tasks, execute)

    # ------------------------------------------------------------------
    # The cache-aware data path
    # ------------------------------------------------------------------
    def materialize(
        self,
        rdd: "RDD",
        split: int,
        executor: "Executor",
        tm: TaskMetrics,
    ) -> list:
        """Obtain one partition: memory hit, disk hit, remote hit, or compute."""
        block_id: BlockId = (rdd.rdd_id, split)
        memo = self._task_memo.get(block_id)
        if memo is not None:
            return memo

        candidate = self.cache_manager.is_cache_candidate(rdd)
        if candidate:
            hit = self._lookup(block_id, executor, tm)
            if hit is not None:
                self._task_memo[block_id] = hit
                return hit

        is_recovery = candidate and block_id in self._was_cached
        if candidate:
            self.metrics.cache_misses += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "cache.miss", "cache", pid=executor_pid(executor.executor_id),
                    rdd=rdd.rdd_id, split=split, recovery=is_recovery,
                )
        # Calibration hook: when the fault layer is active, sample the
        # cost model's Eq. 4 prediction for a top-level recompute recovery
        # before running it, then compare against the measured charges.
        predicted = None
        if self.faults is not None and is_recovery and self._recovery_depth == 0:
            predicted = self.cache_manager.predicted_recovery_cost(
                rdd.rdd_id, split, "gone"
            )
        if is_recovery:
            self._recovery_depth += 1
        before = tm.total_seconds if predicted is not None else 0.0
        try:
            data = self._compute(rdd, split, executor, tm)
        finally:
            if is_recovery:
                self._recovery_depth -= 1
        if predicted is not None:
            self._record_recovery_sample(
                rdd.rdd_id, split, executor, "gone", predicted,
                tm.total_seconds - before,
            )

        if (
            candidate
            and self.cluster.find_block(block_id) is None
            and self.cluster.remote_block(block_id) is None
        ):
            if self.columnar is not None:
                # Encode type-analyzable partitions before they are sized
                # and offered: memoized even when admission declines, so a
                # recomputed-after-eviction split stays columnar too.
                data = self.columnar.encode_for_cache(rdd, data, self.metrics)
            if not rdd.size_model.measured:
                size = self._task_size_memo.get(block_id)
                if size is None:
                    self.metrics.bytes_for_memo_misses += 1
                    size = rdd.size_model.bytes_for(rdd.size_weight(data))
                else:
                    self.metrics.bytes_for_memo_hits += 1
            else:
                # Measured size models price the freshly-encoded batch's
                # real nbytes, which the pre-encode memo cannot know.
                size = rdd.size_model.bytes_for(rdd.size_weight(data))
            self.cache_manager.handle_cache(executor, rdd, split, data, size, tm)
            if (
                self.cluster.find_block(block_id) is not None
                or self.cluster.remote_block(block_id) is not None
            ):
                self._was_cached.add(block_id)
        self._task_memo[block_id] = data
        return data

    def _lookup(
        self,
        block_id: BlockId,
        executor: "Executor",
        tm: TaskMetrics,
    ) -> list | None:
        """Find a cached block locally, then cluster-wide; charge the read."""
        now = self.cluster.clock.now
        loc = executor.bm.location_of(block_id)
        if loc is BlockLocation.MEMORY:
            block = executor.bm.memory.get(block_id)
            block.touch(now)
            self._trace_hit("cache.hit_mem", executor, block)
            self.cache_manager.on_memory_hit(executor, block, tm)
            return block.data
        if loc is BlockLocation.DISK:
            # Calibration: a local disk read-back is the Eq. 3 recovery;
            # sample it around exactly the charged read (promotion and
            # admission work afterwards is not recovery cost).
            predicted = None
            before = 0.0
            if self.faults is not None:
                predicted = self.cache_manager.predicted_recovery_cost(
                    block_id[0], block_id[1], "disk"
                )
                before = tm.total_seconds
            block = executor.bm.read_from_disk(block_id, tm)
            if predicted is not None:
                self._record_recovery_sample(
                    block_id[0], block_id[1], executor, "disk", predicted,
                    tm.total_seconds - before,
                )
            block.touch(now)
            self._trace_hit("cache.hit_disk", executor, block)
            self.cache_manager.on_disk_hit(executor, block, tm)
            return block.data
        if self.cluster.remote_block(block_id) is not None:
            # The remote-memory tier sits between executor tiers and peer
            # reads; with the elastic tier off the pool is None and this
            # branch never fires.  Calibration mirrors the disk read-back:
            # the sample brackets exactly the charged pull.
            predicted = None
            before = 0.0
            if self.faults is not None:
                predicted = self.cache_manager.predicted_recovery_cost(
                    block_id[0], block_id[1], "remote"
                )
                before = tm.total_seconds
            block = executor.bm.read_from_remote(block_id, tm)
            if predicted is not None:
                self._record_recovery_sample(
                    block_id[0], block_id[1], executor, "remote", predicted,
                    tm.total_seconds - before,
                )
            block.touch(now)
            self._trace_hit("cache.hit_remote", executor, block)
            self.cache_manager.on_remote_hit(executor, block, tm)
            return block.data
        if not self.cluster.config.allow_remote_cache_reads:
            return None
        found = self.cluster.find_block(block_id)
        if found is None:
            return None
        owner, loc = found
        block = owner.bm.get(block_id)
        if loc is BlockLocation.DISK:
            owner.bm.charge_disk_read(block, tm)
            block.touch(now)
            self._trace_hit("cache.hit_disk", owner, block, remote=True)
            self.cache_manager.on_disk_hit(owner, block, tm)
        else:
            block.touch(now)
            self._trace_hit("cache.hit_mem", owner, block, remote=True)
            self.cache_manager.on_memory_hit(owner, block, tm)
        self.cluster.charge_remote_read(block, tm)
        return block.data

    def _record_recovery_sample(
        self,
        rdd_id: int,
        split: int,
        executor: "Executor",
        state: str,
        predicted: float,
        measured: float,
    ) -> None:
        self.metrics.record_recovery_sample(rdd_id, split, state, predicted, measured)
        if self.tracer.enabled:
            self.tracer.instant(
                "recovery.measured", "fault",
                pid=executor_pid(executor.executor_id),
                rdd=rdd_id, split=split, state=state,
                predicted_s=predicted, measured_s=measured,
            )

    def _trace_hit(self, name: str, executor: "Executor", block: Block, **extra) -> None:
        self.metrics.cache_hits += 1
        if self.tracer.enabled:
            self.tracer.instant(
                name, "cache", pid=executor_pid(executor.executor_id),
                rdd=block.rdd_id, split=block.split, bytes=block.size_bytes,
                **extra,
            )
        # Cross-tenant hit: lineage dedup let this job read a block another
        # tenant materialized.  Only fires under an active tenancy registry
        # with distinct tenants, so single-tenant traces are unchanged.
        tenancy = self.cluster.tenancy
        if (
            tenancy is not None
            and block.tenant is not None
            and block.tenant != tenancy.current_tenant
        ):
            self.metrics.shared_hits += 1
            self.metrics.shared_hit_bytes += block.size_bytes
            if self.tracer.enabled:
                self.tracer.instant(
                    "cache.shared_hit", "cache",
                    pid=executor_pid(executor.executor_id),
                    rdd=block.rdd_id, split=block.split, bytes=block.size_bytes,
                    owner=block.tenant, reader=tenancy.current_tenant,
                )

    def _compute(
        self,
        rdd: "RDD",
        split: int,
        executor: "Executor",
        tm: TaskMetrics,
    ) -> list:
        """Run the operator body, resolving inputs recursively."""
        chain = self._fusion.plan_for(rdd)
        if chain is not None and self._fusion.runtime_ok(chain, split):
            out, n_in = self._fusion.execute(chain, split, executor, tm)
            return self._charge_computed(rdd, split, n_in, out, tm)
        narrow_data = [
            self.materialize(parent, ps, executor, tm)
            for parent, ps in rdd.narrow_inputs(split)
        ]
        if self.shard is not None:
            speculated = self.shard.speculated(rdd, split)
            if speculated is not None:
                # Worker-computed output: inputs above were still resolved
                # through the cache path (hits, misses, and admissions fire
                # exactly as unsharded), and the fetches below charge the
                # real shuffle stats — only the operator body is skipped.
                out, merge_counts = speculated
                n_in = sum(len(d) for d in narrow_data)
                for dep, count in zip(rdd.shuffle_deps, merge_counts):
                    if self.faults is not None:
                        self.faults.on_fetch(dep)
                    if not self.cluster.shuffle.is_complete(dep):
                        self._recompute_shuffle(dep, executor, tm)
                    self.cluster.shuffle.charge_fetch(dep, split, tm)
                    n_in += count
                return self._charge_computed(rdd, split, n_in, out, tm)
        shuffle_data = []
        for dep in rdd.shuffle_deps:
            if self.faults is not None:
                # An armed fetch failure drops a map output *before* the
                # completeness check: the reattempt then walks the normal
                # stage-resubmission path (Spark's FetchFailed flow).
                self.faults.on_fetch(dep)
            if not self.cluster.shuffle.is_complete(dep):
                self._recompute_shuffle(dep, executor, tm)
            shuffle_data.append(self.cluster.shuffle.fetch(dep, split, tm))

        n_in = sum(len(d) for d in narrow_data) + sum(len(s) for s in shuffle_data)
        out = rdd.compute(split, narrow_data, shuffle_data)
        if not isinstance(out, (list, ColumnarBatch)):
            # Pass-through computes (union, single-parent coalesce) hand a
            # cached parent partition straight back, which may be a batch.
            raise DataflowError(f"{rdd!r}.compute must return a partition")
        return self._charge_computed(rdd, split, n_in, out, tm)

    def _charge_computed(
        self,
        rdd: "RDD",
        split: int,
        n_in: int,
        out: list,
        tm: TaskMetrics,
    ) -> list:
        """Charge compute time and feed the profiling hook for ``out``.

        Also memoizes the partition's modeled bytes for the task so
        ``materialize`` does not re-walk the data through a size weigher
        when offering it to the cache.
        """
        weight = rdd.size_weight(out)
        seconds = rdd.op_cost.seconds(n_in, len(out))
        tm.compute_seconds += seconds
        if self._recovery_depth > 0:
            tm.recompute_seconds += seconds
        self.cache_manager.on_partition_computed(
            rdd, split, n_in, len(out), seconds, weight
        )
        if not rdd.size_model.measured:
            self._task_size_memo[(rdd.rdd_id, split)] = rdd.size_model.bytes_for(weight)
        return out

    def _recompute_shuffle(
        self,
        dep: ShuffleDependency,
        executor: "Executor",
        tm: TaskMetrics,
    ) -> None:
        """Regenerate missing shuffle map outputs (the deep recovery path).

        The requesting task is charged the full upstream work (it lands in
        the accumulated task time), but on a real cluster a resubmitted map
        stage runs its tasks in parallel across the slots — so all but the
        critical path is marked *offloaded* and does not extend the
        requesting task's duration.  The regenerated outputs are registered
        so sibling reduce tasks reuse them.
        """
        job_id = self.job_log[-1].job_id if self.job_log else 0
        missing = self.cluster.shuffle.missing_map_splits(dep)
        # Counted on fault-free runs too: retention cleanup regeneration is
        # the same stage re-execution path as crash/fetch-failure recovery.
        self.metrics.stage_resubmits += 1
        if self.tracer.enabled:
            # Keyed by the map-side dataset: raw shuffle ids are process-
            # global and would break byte-identical traces across runs.
            self.tracer.instant(
                "stage.resubmit", "scheduler",
                map_rdd=dep.parent.rdd_id, missing=len(missing), job_id=job_id,
            )
        before = tm.total_seconds
        for map_split in missing:
            data = self.materialize(dep.parent, map_split, executor, tm)
            self.cluster.shuffle.write(dep, map_split, data, tm, job_id)
        regenerated = tm.total_seconds - before
        parallelism = min(len(missing), self.cluster.config.total_slots)
        if parallelism > 1 and regenerated > 0:
            tm.offloaded_seconds += regenerated * (1.0 - 1.0 / parallelism)

    # ------------------------------------------------------------------
    def unpersist_rdd(self, rdd: "RDD") -> None:
        """Driver-side unpersist: drop all the dataset's blocks everywhere."""
        for ex in self.cluster.executors:
            for store in (ex.bm.memory, ex.bm.disk):
                for block in store.blocks_for_rdd(rdd.rdd_id):
                    ex.bm.discard(block.block_id, evicted=False)
                    self.cache_manager.on_block_removed(ex, block)

    @property
    def current_job_id(self) -> int:
        return self.job_log[-1].job_id if self.job_log else -1
