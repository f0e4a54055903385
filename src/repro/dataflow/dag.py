"""Job and stage construction (the DAGScheduler's planning half).

A job is triggered by an action on a final RDD.  Stages are delimited by
shuffle dependencies: each :class:`ShuffleDependency` reachable from the
final RDD through narrow edges becomes a parent ``ShuffleMapStage`` whose
tasks compute the *parent* RDD's partitions and bucket them for the reduce
side; the action itself runs in the ``ResultStage``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from ..errors import DataflowError
from .dependencies import ShuffleDependency
from .lineage import narrow_closure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rdd import RDD

_stage_ids = itertools.count()


class Stage:
    """A pipelined unit of execution.

    ``rdd`` is the terminal dataset the stage's tasks materialize: for a
    shuffle-map stage it is the *map side* (``shuffle_dep.parent``); for the
    result stage it is the job's final RDD.
    """

    def __init__(
        self,
        rdd: "RDD",
        shuffle_dep: ShuffleDependency | None,
        parents: list["Stage"],
    ) -> None:
        self.stage_id = next(_stage_ids)
        self.rdd = rdd
        self.shuffle_dep = shuffle_dep
        self.parents = parents
        self.job: "Job | None" = None
        self.seq_in_job: int = -1  # position in the job's execution order

    @property
    def is_result(self) -> bool:
        return self.shuffle_dep is None

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions

    def referenced_rdds(self, materialized: set[int] | None = None) -> list["RDD"]:
        """Datasets this stage's tasks are expected to touch.

        The narrow closure pruned at annotation-cached datasets: a cached
        parent is read, not recomputed, so its own ancestors do not count
        as references of this stage.  Passing the set of already
        ``materialized`` dataset ids refines the pruning: a cached dataset
        being produced for the first time computes *through* its parents,
        so those still count (see :func:`narrow_closure`).
        """
        return narrow_closure(self.rdd, stop_at_cached=True, materialized=materialized)

    def __repr__(self) -> str:
        kind = "Result" if self.is_result else f"ShuffleMap(s{self.shuffle_dep.shuffle_id})"
        return f"<Stage {self.stage_id} {kind} rdd=R{self.rdd.rdd_id} tasks={self.num_tasks}>"


class JobStream:
    """One application's jobs, numbered in the order it submits them.

    The driver numbers jobs fleet-wide; a cache manager that reasons about
    an application's *future* (Blaze's reference streams) needs the job's
    index on the application's own axis, which no other application's
    arrivals can shift.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.jobs_submitted = 0


class Job:
    """An action-triggered execution: ordered stages ending in a result."""

    def __init__(
        self,
        job_id: int,
        final_rdd: "RDD",
        action_fn: Callable[[int, list], Any],
        stages: list[Stage],
        stream: JobStream | None = None,
    ) -> None:
        if not stages or not stages[-1].is_result:
            raise DataflowError("a job must end with its result stage")
        self.job_id = job_id
        #: the application this job belongs to, and the job's index on that
        #: application's own axis; a job submitted outside any stream is
        #: the driver's one application, indexed by the driver job id
        self.stream = stream
        self.seq_in_stream = job_id
        if stream is not None:
            self.seq_in_stream = stream.jobs_submitted
            stream.jobs_submitted += 1
        self.final_rdd = final_rdd
        self.action_fn = action_fn
        self.stages = stages
        #: set by the driver at submission: the stages that will actually
        #: execute (Spark's getMissingParentStages pruning — ancestors of
        #: fully cached datasets and completed shuffles are not submitted)
        self.stages_to_run: list[Stage] | None = None
        for seq, stage in enumerate(stages):
            stage.job = self
            stage.seq_in_job = seq

    @property
    def result_stage(self) -> Stage:
        return self.stages[-1]

    @property
    def execution_stages(self) -> list[Stage]:
        """Stages expected to execute (falls back to all planned stages)."""
        return self.stages_to_run if self.stages_to_run is not None else self.stages

    def lineage_rdds(self) -> list["RDD"]:
        """All datasets appearing anywhere in this job's stages."""
        seen: dict[int, RDD] = {}
        for stage in self.stages:
            for rdd in stage.referenced_rdds():
                seen.setdefault(rdd.rdd_id, rdd)
        return list(seen.values())

    def __repr__(self) -> str:
        return f"<Job {self.job_id} final=R{self.final_rdd.rdd_id} stages={len(self.stages)}>"


def job_reference_sets(
    job: Job,
    materialized: set[int] | None = None,
) -> list[tuple[int, list["RDD"]]]:
    """Per-stage expected references, first-touch aware.

    Walks the job's execution stages in order, pruning each stage's closure
    at cached datasets that have already been produced (either before this
    job, per ``materialized``, or by an earlier stage of this job).
    Returns ``[(stage_seq, [rdds]), ...]`` and does not mutate the input.
    """
    state = set(materialized or ())
    out: list[tuple[int, list[RDD]]] = []
    for stage in job.execution_stages:
        refs = stage.referenced_rdds(state)
        out.append((stage.seq_in_job, refs))
        state.update(r.rdd_id for r in refs)
    return out


def build_job(
    job_id: int,
    final_rdd: "RDD",
    action_fn: Callable[[int, list], Any],
    stream: JobStream | None = None,
) -> Job:
    """Plan the stage DAG for an action on ``final_rdd``.

    Stages are deduplicated by shuffle id within the job, and the returned
    list is a valid topological execution order (parents first).
    """
    stage_by_shuffle: dict[int, Stage] = {}

    def parent_stages(rdd: "RDD") -> list[Stage]:
        found: list[Stage] = []
        seen_shuffles: set[int] = set()
        for node in narrow_closure(rdd):
            for dep in node.shuffle_deps:
                if dep.shuffle_id in seen_shuffles:
                    continue
                seen_shuffles.add(dep.shuffle_id)
                found.append(stage_for(dep))
        return found

    def stage_for(dep: ShuffleDependency) -> Stage:
        existing = stage_by_shuffle.get(dep.shuffle_id)
        if existing is not None:
            return existing
        stage = Stage(dep.parent, dep, parent_stages(dep.parent))
        stage_by_shuffle[dep.shuffle_id] = stage
        return stage

    result = Stage(final_rdd, None, parent_stages(final_rdd))

    # Topological order, parents first, deterministic.
    ordered: list[Stage] = []
    visited: set[int] = set()

    def visit(stage: Stage) -> None:
        if stage.stage_id in visited:
            return
        visited.add(stage.stage_id)
        for parent in stage.parents:
            visit(parent)
        ordered.append(stage)

    visit(result)
    return Job(job_id, final_rdd, action_fn, ordered, stream)
