"""The CostLineage: cross-job lineage with live partition metrics (§5.3).

The CostLineage merges the DAGs of all submitted (and profiled) jobs into a
single graph, tracks where each dataset is *referenced* (job, stage), and
layers partition metrics on top.  What it knows splits in two:

**Shared, per dataset** (one copy, whichever application touches it):

- structure: ``parents_of`` / ``num_splits`` — the recomputation paths;
- metrics: observed sizes/compute times, with profile-scaled priors and
  inductive regression over congruent iterations filling the gaps.

**Per application** — a :class:`ReferenceStream`, positioned on that
application's *own* job index (its first job is job 0, whatever the
driver-global job id).  References are a model, not stored events: a
stream keeps its *real* events and predicts the rest per dataset, on
demand, from its adopted template (for jobs not yet run), its iteration
cycle's role offsets and its recurrent-dataset watermarks, up to a
horizon the UDL advances once per submit.

``future_refs`` — the one number admission, eviction weights and
auto-unpersist hang on — is the *sum over every open stream*: the current
stream (the one whose job is executing) counted inclusive/exclusive of
its running stage, every parked stream from its last completed stage.  A
single application is one stream whose job index is the driver job id.

The paper's induction is lifted one level, from iterations to
applications: a :class:`StreamTemplate` is what one application's stream
looked like from start to end (the seeded profile is the first one; a
closed stream that instantiated none becomes one).  A newly opened stream
adopts a template as the prediction its real captures overrule job by
job, and when two of the last three closed streams instantiated the
same template, one not-yet-arrived instance of it is *projected* — the
recurrent-dataset rule applied to applications — so shared datasets keep
references across the idle gap between arrivals.

Positions are ``(job_seq, stage_seq)`` pairs ordered lexicographically;
the driver advances the current stream's position as stages complete.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from .metrics_store import PartitionMetricsStore
from .pattern import CycleInfo, detect_cycle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow.dag import Job


Position = tuple[int, int]


@dataclass(frozen=True)
class StageRef:
    """One executed stage: its sequence number and the datasets it touches."""

    seq: int
    rdd_ids: tuple[int, ...]


@dataclass(frozen=True)
class JobCapture:
    """Structural capture of one job (executed stages only).

    ``job_seq`` is the job's index on its application's own job axis.
    """

    job_seq: int
    stages: tuple[StageRef, ...]

    def rdd_ids(self) -> set[int]:
        return {r for stage in self.stages for r in stage.rdd_ids}


def capture_job(
    job: "Job",
    is_stage_skipped=None,
    materialized: set[int] | None = None,
) -> JobCapture:
    """Build a :class:`JobCapture` from a submitted job.

    Only the stages expected to execute (``job.execution_stages``) produce
    reference events; ``is_stage_skipped(stage) -> bool`` further filters
    stages whose shuffle outputs already exist.  When ``materialized`` is
    provided it is used for first-touch-aware closure pruning and is
    updated in place with this job's newly produced datasets.
    """
    from ..dataflow.dag import job_reference_sets

    skip_seqs = set()
    if is_stage_skipped is not None:
        skip_seqs = {
            stage.seq_in_job for stage in job.execution_stages if is_stage_skipped(stage)
        }
    stages = []
    for seq, refs in job_reference_sets(job, materialized):
        if seq in skip_seqs:
            continue
        stages.append(StageRef(seq=seq, rdd_ids=tuple(r.rdd_id for r in refs)))
    if materialized is not None:
        for stage in stages:
            materialized.update(stage.rdd_ids)
    return JobCapture(job_seq=job.seq_in_stream, stages=tuple(stages))


@dataclass(frozen=True, eq=False)
class StreamTemplate:
    """One application's reference stream, start to end, as a prediction.

    ``complete`` says the captures enumerate the whole application (a
    truncated profile's do not): an adopting stream then knows its total
    job count and trusts "no known reference" to mean "no reference".
    Templates compare by identity — "instantiated the same template" is
    about which prediction a stream adopted, not what it turned out to do
    (realized captures vary with what happened to be cached).
    """

    captures: tuple[JobCapture, ...]
    complete: bool

    def rdd_ids(self) -> set[int]:
        return {r for capture in self.captures for r in capture.rdd_ids()}


class ReferenceStream:
    """One application's references, on its own job axis.

    Real events are stored; the rest is predicted per dataset from the
    model, so answers never depend on the order in which queries or other
    datasets' predictions ran.
    """

    def __init__(self, lineage: "CostLineage", name: str = "") -> None:
        self._lineage = lineage
        self.name = name
        #: the prediction this stream adopted, if any
        self.template: StreamTemplate | None = None
        #: real captures in job order (what a closed stream is remembered by)
        self.captures: list[JobCapture] = []
        # ---- the model
        self._events: dict[int, set[Position]] = {}
        self._template_events: dict[int, set[Position]] = {}
        self._template_jobs: frozenset[int] = frozenset()
        self._real_last = -1
        self._new_ids_per_job: dict[int, list[int]] = {}
        self.seen_ids: set[int] = set()
        self.cycle: CycleInfo | None = None
        #: last job induction predicts references for (monotone)
        self.horizon = -1
        # recurrent-dataset rule: dataset -> last job it is predicted in
        self._recurrent_through: dict[int, int] = {}
        #: total number of jobs the application will submit, when known
        #: (a complete template captured a run to its end)
        self.expected_total_jobs: int | None = None
        # ---- derived from the model, rebuilt lazily after it changes
        self._sorted_cache: dict[int, list[Position]] = {}
        self._offsets: dict[int, set[int]] | None = None
        # ---- progress
        self.position: Position = (-1, -1)

    @property
    def knowledge_complete(self) -> bool:
        """Can future references be trusted to be exhaustive?

        Yes once the model predicts the whole future: a complete template,
        a detected iteration cycle, or a dataset the recurrent rule holds
        for.  Until then, "zero future refs" may just mean "not yet known",
        and unpersisting on it would destroy reused data.
        """
        return (
            self.expected_total_jobs is not None
            or self.cycle is not None
            or bool(self._recurrent_through)
        )

    # ------------------------------------------------------------------
    # The model: captures, template, cycle, horizon
    # ------------------------------------------------------------------
    def adopt(self, template: StreamTemplate) -> None:
        """Take a template as the prediction of this stream's jobs."""
        self.template = template
        self._template_jobs = frozenset(c.job_seq for c in template.captures)
        for capture in template.captures:
            self._add(capture, self._template_events)
        if template.complete:
            self.expected_total_jobs = max(self._template_jobs, default=-1) + 1
        self._changed()

    def ingest_capture(self, capture: JobCapture) -> None:
        """Merge one real job's stage references into the stream.

        Predictions for a job yield to its real capture: from here on, the
        template and induction only speak for later jobs.
        """
        self.captures.append(capture)
        self._real_last = max(self._real_last, capture.job_seq)
        self._add(capture, self._events)
        self._changed()

    def _add(self, capture: JobCapture, events: dict[int, set[Position]]) -> None:
        new_ids: list[int] = []
        for stage in capture.stages:
            position = (capture.job_seq, stage.seq)
            for rdd_id in stage.rdd_ids:
                events.setdefault(rdd_id, set()).add(position)
                if rdd_id not in self.seen_ids:
                    self.seen_ids.add(rdd_id)
                    new_ids.append(rdd_id)
        if new_ids:
            self._new_ids_per_job.setdefault(capture.job_seq, []).extend(new_ids)
            self._refresh_cycle()

    def _refresh_cycle(self) -> None:
        if not self._lineage.induction_enabled:
            return
        new_ids = self._new_ids_per_job
        cycle = detect_cycle([new_ids.get(j, []) for j in range(max(new_ids) + 1)])
        if cycle is not None and cycle != self.cycle:
            self.cycle = cycle
            lineage = self._lineage
            lineage.metrics.role_fn = lineage.prior.role_fn = lineage._role_of
            # role offsets supersede the cruder recurrent-dataset rule
            self._recurrent_through.clear()

    def _changed(self) -> None:
        self._sorted_cache.clear()
        self._offsets = None
        self._lineage.version += 1

    def predict_through(self, job: int) -> None:
        """Let induction predict references up to ``job`` (once per submit).

        Role offsets apply up to the horizon; a dataset without a cycle role
        that two of the last three captures referenced is predicted in every
        job up to ``job``, and stays so even if the rule stops holding.
        Neither rule runs under a complete template: it enumerates every job.
        """
        if not self._lineage.induction_enabled or self.expected_total_jobs is not None:
            return
        changed = job > self.horizon
        self.horizon = max(self.horizon, job)
        real_last, cycle = self._real_last, self.cycle
        if real_last >= 1 and job > real_last:
            recent = Counter(r for c in self.captures[-3:] for r in c.rdd_ids())
            for rdd_id, jobs in recent.items():
                if jobs >= 2 and (cycle is None or cycle.role_of(rdd_id) is None):
                    if self._recurrent_through.get(rdd_id, -1) < job:
                        self._recurrent_through[rdd_id] = job
                        changed = True
        if changed:
            self._changed()

    def _role_offsets(self) -> dict[int, set[int]]:
        """D_rho: per role, the jobs (relative to a dataset's own iteration
        job) at which the role's datasets were really referenced."""
        if self._offsets is None:
            cycle, self._offsets = self.cycle, {}
            for rdd_id, events in self._events.items():
                role = cycle.role_of(rdd_id)
                if role is not None:
                    own_job = cycle.start_job + role[1]
                    self._offsets.setdefault(role[0], set()).update(
                        job - own_job for job, _stage in events
                    )
        return self._offsets

    def _predicted(self, rdd_id: int) -> set[Position]:
        """Real events, plus template and induced ones for jobs not yet run."""
        real_last, last = self._real_last, self.horizon
        events = set(self._events.get(rdd_id, ()))
        events.update(p for p in self._template_events.get(rdd_id, ()) if p[0] > real_last)
        through = self._recurrent_through.get(rdd_id, -1)
        events.update((j, 0) for j in range(real_last + 1, through + 1))
        role = self.cycle.role_of(rdd_id) if self.cycle is not None else None
        if role is not None:
            own_job = self.cycle.start_job + role[1]
            for delta in self._role_offsets().get(role[0], ()):
                j = own_job + delta
                if real_last < j <= last and j not in self._template_jobs:
                    events.add((j, 0))
        return events

    # ------------------------------------------------------------------
    # Progress + per-stream reference queries
    # ------------------------------------------------------------------
    def set_position(self, job_seq: int, stage_seq: int) -> None:
        """Advance the stream's progress pointer."""
        if self.position != (job_seq, stage_seq):
            self.position = (job_seq, stage_seq)
            self._lineage.version += 1

    @property
    def next_job(self) -> int:
        """First job a *parked* stream has not run yet.

        Applications interleave at job granularity, so a parked stream
        sits past the last stage of ``position[0]`` (or has not started).
        """
        return self.position[0] + 1

    def sorted_events(self, rdd_id: int) -> Sequence[Position]:
        if rdd_id not in self.seen_ids:
            return _NO_EVENTS
        cached = self._sorted_cache.get(rdd_id)
        if cached is None:
            cached = self._sorted_cache[rdd_id] = sorted(self._predicted(rdd_id))
        return cached

    def remaining_refs(self, rdd_id: int, inclusive: bool = True) -> int:
        """Events at (``inclusive``) or after the stream's position."""
        events = self.sorted_events(rdd_id)
        return len(events) - (bisect_left if inclusive else bisect_right)(events, self.position)

    def refs_in_jobs(self, rdd_id: int, first_job: int, last_job: int) -> int:
        events = self.sorted_events(rdd_id)
        lo = bisect_left(events, (first_job, -1))
        hi = bisect_right(events, (last_job, 1 << 30))
        return hi - lo

    def next_reference_job(self, rdd_id: int) -> int | None:
        events = self.sorted_events(rdd_id)
        idx = bisect_left(events, self.position)
        return events[idx][0] if idx < len(events) else None

    def __repr__(self) -> str:
        return f"<ReferenceStream {self.name!r} pos={self.position} cycle={self.cycle}>"


_NO_EVENTS: tuple[Position, ...] = ()


@dataclass(frozen=True)
class StreamReferences:
    """One stream's share of a dataset's future references (``explain()``)."""

    stream: str
    #: ``"current"``, ``"parked"`` or ``"projected"``
    role: str
    position: Position
    refs: int
    #: the stream's job index of the next reference, on its own axis
    next_job: int | None


class CostLineage:
    """Shared lineage + metrics, and the reference streams counted over it."""

    def __init__(self, induction_enabled: bool = True) -> None:
        self.induction_enabled = induction_enabled
        # ---- structure
        self._parents: dict[int, tuple[int, ...]] = {}
        self._num_splits: dict[int, int] = {}
        self._names: dict[int, str] = {}
        self._ser_factors: dict[int, float] = {}
        # ---- decision epochs: ``version`` advances whenever anything a
        # reference or cost query depends on changes (a stream's position
        # or events, a stream opening/closing/becoming current, structure,
        # cycle detection).  Consumers stamp memoized results with it and
        # re-derive lazily.
        self.version = 0
        self._refs_memo: dict[tuple[int, bool], int] = {}
        self._refs_memo_version = -1
        # ---- reference streams: open ones by key (opening order), the one
        # whose job is executing (or ran last), and the projected instance
        self._streams: dict[Hashable, ReferenceStream] = {}
        self._current: ReferenceStream | None = None
        self._projected: ReferenceStream | None = None
        #: every stream ``future_refs`` sums: open ones, then the projection
        self._counted: list[ReferenceStream] = []
        #: templates the last three closed streams instantiated (the seeded
        #: profile counts as the first): the only ones a new stream can
        #: adopt, and the window of the projection rule
        self._recent: deque[StreamTemplate] = deque(maxlen=3)
        #: the seeded profile's stream, waiting for the next application to
        #: open (it describes the one about to start)
        self._seeded: ReferenceStream | None = None
        # ---- metrics
        self.metrics = PartitionMetricsStore()
        self.prior = PartitionMetricsStore()  # profile-scaled estimates

    # ------------------------------------------------------------------
    # Structure registration
    # ------------------------------------------------------------------
    def register_rdd(
        self,
        rdd_id: int,
        parent_ids: Iterable[int],
        num_splits: int,
        name: str = "",
        ser_factor: float = 1.0,
    ) -> None:
        """Add or refresh one dataset's structural facts."""
        parents = tuple(parent_ids)
        if (
            self._parents.get(rdd_id) != parents
            or self._num_splits.get(rdd_id) != num_splits
            or self._ser_factors.get(rdd_id) != ser_factor
        ):
            self.version += 1
        self._parents[rdd_id] = parents
        self._num_splits[rdd_id] = num_splits
        self._ser_factors[rdd_id] = ser_factor
        if name:
            self._names[rdd_id] = name

    def parents_of(self, rdd_id: int) -> tuple[int, ...]:
        return self._parents.get(rdd_id, ())

    def num_splits_of(self, rdd_id: int) -> int:
        return self._num_splits.get(rdd_id, 0)

    def name_of(self, rdd_id: int) -> str:
        return self._names.get(rdd_id, f"R{rdd_id}")

    def ser_factor_of(self, rdd_id: int) -> float:
        return self._ser_factors.get(rdd_id, 1.0)

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    def open_stream(self, key: Hashable, name: str = "") -> ReferenceStream:
        """Start counting an application's references (idempotent).

        The stream knows nothing yet; it adopts a template at its first
        real capture (see :meth:`ingest_capture`).  The exception is a
        seeded profile, which describes the application about to start:
        the next stream to open is the one seeding prepared.
        """
        stream = self._streams.get(key)
        if stream is not None:
            return stream
        stream, self._seeded = self._seeded or ReferenceStream(self), None
        stream.name = name
        self._streams[key] = stream
        if self._current is None:
            self._current = stream
        self._recount()
        return stream

    def activate(self, key: Hashable) -> None:
        """Make ``key``'s stream the current one: its job is executing."""
        stream = self.open_stream(key)
        if stream is not self._current:
            self._current = stream
            self.version += 1

    def close_stream(self, key: Hashable) -> None:
        """The application ended: stop counting its stream, remember it.

        A stream that ran jobs is remembered by the template it
        instantiated — itself, if it adopted none — and when two of the
        last three remembered agree, one more instance is projected.
        """
        stream = self._streams.pop(key, None)
        if stream is None:
            return
        if stream is self._current:
            self._current = None
        if stream.captures:
            self._recent.append(
                stream.template or StreamTemplate(tuple(stream.captures), complete=True)
            )
            self._project()
        self._recount()

    def add_template(self, captures: Iterable[JobCapture], complete: bool) -> None:
        """Seed a profile: the first template, adopted for the next stream."""
        template = StreamTemplate(tuple(captures), complete)
        self._recent.append(template)
        self._seeded = ReferenceStream(self)
        self._seeded.adopt(template)

    def _project(self) -> None:
        recent = list(self._recent)
        template = next((t for t in recent if recent.count(t) >= 2), None)
        if template is (self._projected.template if self._projected else None):
            return
        self._projected = None
        if template is not None:
            self._projected = ReferenceStream(self, "projected")
            self._projected.adopt(template)

    def _recount(self) -> None:
        self._counted = list(self._streams.values())
        if self._projected is not None:
            self._counted.append(self._projected)
        self.version += 1

    @property
    def current(self) -> ReferenceStream:
        """The current stream; a lineage used without streams gets one."""
        if self._current is None:
            self.activate(None)
        return self._current

    def _role_of(self, rdd_id: int) -> tuple[int, int] | None:
        """(role, iteration) of a dataset in the current stream's cycle."""
        stream = self._current or self._seeded
        if stream is None or stream.cycle is None:
            return None
        return stream.cycle.role_of(rdd_id)

    # -- the current stream's state under the names a one-application
    # -- lineage always had
    def ingest_capture(self, capture: JobCapture) -> None:
        """Merge one real job's references into the current stream.

        A stream's first real capture is when it learns what it is: it
        adopts the first recent template whose datasets cover the
        capture's (containment, not equality — what a job is expected to
        touch shrinks with what is already cached).
        """
        stream = self.current
        if stream.template is None and not stream.captures:
            rdd_ids = capture.rdd_ids()
            for template in dict.fromkeys(self._recent):
                if rdd_ids <= template.rdd_ids():
                    stream.adopt(template)
                    break
        stream.ingest_capture(capture)

    def predict_through(self, job: int) -> None:
        self.current.predict_through(job)

    def set_position(self, job_seq: int, stage_seq: int) -> None:
        self.current.set_position(job_seq, stage_seq)

    @property
    def cycle(self) -> CycleInfo | None:
        return self.current.cycle

    @property
    def knowledge_complete(self) -> bool:
        return self.current.knowledge_complete

    @property
    def expected_total_jobs(self) -> int | None:
        return self.current.expected_total_jobs

    # ------------------------------------------------------------------
    # Reference queries: sums over every counted stream
    # ------------------------------------------------------------------
    def future_refs(self, rdd_id: int, inclusive: bool = True) -> int:
        """Remaining stage-level references, over every open stream.

        ``inclusive`` counts a reference in the currently executing stage
        (used on the lookup path); exclusive counting (used when deciding
        whether a freshly produced partition has *reuse*) does not.  Only
        the current stream has an executing stage: parked streams and the
        projected instance count everything from their position on.

        Counts are memoized per decision epoch: this is the single hottest
        lineage query (every admission, eviction, and auto-unpersist sweep
        hits it) and its inputs only change when :attr:`version` advances.
        """
        if self._refs_memo_version != self.version:
            self._refs_memo.clear()
            self._refs_memo_version = self.version
        key = (rdd_id, inclusive)
        cached = self._refs_memo.get(key)
        if cached is not None:
            return cached
        current = self._current
        count = 0
        for stream in self._counted:
            count += stream.remaining_refs(rdd_id, inclusive or stream is not current)
        self._refs_memo[key] = count
        return count

    def refs_exhaustive(self, rdd_id: int) -> bool:
        """Can "zero future references" be trusted for this dataset?

        Yes when every stream it concerns — the current one, and any open
        stream that has referenced it — has complete knowledge of its own
        future.  Another application's blank future says nothing about a
        dataset it never touched.
        """
        current = self._current
        return all(
            stream.knowledge_complete
            for stream in self._streams.values()
            if stream is current or rdd_id in stream.seen_ids
        )

    def refs_in_window(self, rdd_id: int, first_job: int, last_job: int) -> int:
        """References within the ILP horizon.

        The current stream's in its jobs ``[first_job, last_job]``, plus
        every other counted stream's in as many of its own next jobs.
        """
        span = last_job - first_job
        current = self._current
        count = 0
        for stream in self._counted:
            first = first_job if stream is current else stream.next_job
            count += stream.refs_in_jobs(rdd_id, first, first + span)
        return count

    def next_reference_job(self, rdd_id: int) -> int | None:
        """Job of the dataset's next reference, on the current stream's axis.

        Another stream's next reference lies some jobs past its own next
        job; it is placed as many jobs past the current stream's.
        """
        current = self._current
        after_current = current.position[0] + 1 if current is not None else 0
        best: int | None = None
        for stream in self._counted:
            job = stream.next_reference_job(rdd_id)
            if job is None:
                continue
            if stream is not current:
                job = after_current + job - stream.next_job
            if best is None or job < best:
                best = job
        return best

    def reference_breakdown(self, rdd_id: int) -> tuple[StreamReferences, ...]:
        """Who still references a dataset: one entry per counted stream."""
        current = self._current
        return tuple(
            StreamReferences(
                stream=stream.name,
                role=(
                    "current" if stream is current
                    else "projected" if stream is self._projected
                    else "parked"
                ),
                position=stream.position,
                refs=stream.remaining_refs(rdd_id),
                next_job=stream.next_reference_job(rdd_id),
            )
            for stream in self._counted
        )

    # ------------------------------------------------------------------
    # Metric queries (observed -> prior -> regression -> default)
    # ------------------------------------------------------------------
    def estimate_size(self, rdd_id: int, split: int, default: float = 1.0) -> float:
        """Observed size, else the profile's, else a regression/mean estimate."""
        for store in (self.metrics, self.prior):
            if store.is_observed(rdd_id, split):
                size = store.size_of(rdd_id, split)
                if size > 0:
                    return size
        size = self.metrics.size_of(rdd_id, split, default=0.0)
        if size > 0:
            return size
        size = self.prior.size_of(rdd_id, split, default=0.0)
        return size if size > 0 else default

    def estimate_compute_seconds(self, rdd_id: int, split: int, default: float = 1e-4) -> float:
        """Compute time, with the same fallback chain as sizes."""
        for store in (self.metrics, self.prior):
            if store.is_observed(rdd_id, split):
                return max(store.compute_seconds_of(rdd_id, split), 0.0)
        value = self.metrics.compute_seconds_of(rdd_id, split, default=-1.0)
        if value >= 0:
            return value
        value = self.prior.compute_seconds_of(rdd_id, split, default=-1.0)
        return value if value >= 0 else default

    def observe_partition(
        self,
        rdd_id: int,
        split: int,
        size_bytes: float | None,
        compute_seconds: float | None,
    ) -> None:
        """Record a real materialization's metrics."""
        self.metrics.observe(rdd_id, split, size_bytes, compute_seconds)

    def __repr__(self) -> str:
        return (
            f"<CostLineage rdds={len(self._parents)} streams={len(self._streams)} "
            f"current={self._current!r}>"
        )
