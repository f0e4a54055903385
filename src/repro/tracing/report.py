"""The stable run-report façade: aggregates plus trace replay.

:class:`RunReport` is the one object benchmarks, examples, and experiment
harnesses read results from (``ctx.report()``), instead of reaching into
``ctx.cluster.metrics`` internals.  It snapshots the
:class:`~repro.metrics.collector.MetricsCollector` aggregates and, when the
run was traced, replays the event log into timelines the paper's figures
are drawn from:

- :meth:`job_timelines` — when each job ran on the virtual clock;
- :meth:`eviction_timeline` — per-executor eviction events over time
  (Fig. 3 as a time series, not just totals);
- :meth:`hit_miss_series` — the cumulative cache hit/miss ratio.

When the run had observability enabled (``BlazeConfig.obs.enabled``) the
report additionally carries the decision audit log and the occupancy
samples, and grows three ``repro.obs``-backed views: :meth:`explain`
(why a partition was admitted/evicted), :meth:`critical_path` (where
each job's virtual latency went), and :meth:`prometheus` (exposition
text).  Replay methods that walk the whole event log memoize their
result on the report instance — callers must treat the returned
containers as read-only.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..metrics.collector import RecoverySample
from .tracer import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow.context import BlazeContext
    from ..obs.audit import AuditEntry, ExplainAnswer
    from ..obs.critical_path import CriticalPathReport
    from ..obs.sampler import Sample

#: event names counted as capacity-driven evictions in the replay
_EVICTION_EVENTS = {
    "cache.evict_spill": "spill",
    "cache.evict_discard": "discard",
    "cache.disk_evict": "disk_discard",
}
_HIT_EVENTS = {"cache.hit_mem", "cache.hit_disk"}
_MISS_EVENT = "cache.miss"


@dataclass(frozen=True)
class JobTimeline:
    """One job's placement on the virtual timeline."""

    job_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EvictionEvent:
    """One capacity-driven eviction, located in time and space."""

    ts: float
    executor_id: int
    rdd_id: int
    split: int
    bytes: float
    kind: str  # "spill" | "discard" | "disk_discard"


@dataclass(frozen=True)
class HitMissPoint:
    """Cumulative cache-access counters after one access."""

    ts: float
    hits: int
    misses: int

    @property
    def ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class RunReport:
    """Everything measured from one application run.

    Aggregate fields are always populated; the ``*_timeline`` / ``*_series``
    replay methods need a traced run (``events`` non-empty) and return empty
    sequences otherwise.
    """

    #: end-to-end virtual time of the run (profiling not included)
    act_seconds: float
    job_count: int
    task_count: int
    #: the Fig. 4 / Fig. 10 accumulated-task-time split
    breakdown: dict[str, float]
    recompute_seconds: float
    eviction_count: int
    evictions_to_disk: int
    unpersists: int
    evicted_bytes_by_executor: dict[int, float]
    disk_bytes_written_total: float
    disk_bytes_peak: float
    ilp_solves: int
    ilp_migrations: int
    profiling_seconds: float
    #: decision-layer work counters (cost-memo hits/misses, victim-scan
    #: candidates, ILP nodes) — see ``MetricsCollector.decision_counters``
    decision_counters: dict[str, int] = field(default_factory=dict)
    #: fault-injection / recovery counters (``repro.faults``) — see
    #: ``MetricsCollector.fault_counters``; all zero on fault-free runs
    #: except ``stage_resubmits`` (shuffle regeneration is recovery too)
    fault_counters: dict[str, float] = field(default_factory=dict)
    #: predicted-vs-measured recovery costs sampled while the fault layer
    #: was active (the calibration hook)
    recovery_samples: tuple[RecoverySample, ...] = field(default_factory=tuple)
    #: job-service counters (apps admitted, jobs executed, deduped RDD
    #: registrations, cross-tenant hits) — see
    #: ``MetricsCollector.service_counters``; inert on single-tenant runs
    service_counters: dict[str, float] = field(default_factory=dict)
    #: per-job recomputation seconds, keyed by job id in submission order
    recompute_seconds_by_job: dict[int, float] = field(default_factory=dict)
    events: tuple[TraceEvent, ...] = field(default_factory=tuple)
    #: cache-access counters (hits/misses on candidate datasets) — always
    #: populated, trace not required
    access_counters: dict[str, int] = field(default_factory=dict)
    #: sharded-engine counters (supersteps, residency deltas, bucket
    #: fetches) — see ``MetricsCollector.shard_counters``; all zero with
    #: ``BlazeConfig.sharded_engine`` off
    shard_counters: dict[str, int] = field(default_factory=dict)
    #: elastic-fleet / remote-tier counters (``repro.elastic``) — see
    #: ``MetricsCollector.elastic_counters``; all zero with
    #: ``BlazeConfig.elastic`` off
    elastic_counters: dict[str, float] = field(default_factory=dict)
    #: decision audit log (``repro.obs``); empty unless ``obs.enabled``
    audit_entries: tuple["AuditEntry", ...] = field(default_factory=tuple)
    #: occupancy time-series (``repro.obs``); empty unless ``obs.enabled``
    samples: tuple["Sample", ...] = field(default_factory=tuple)
    #: per-job latency records from the service scheduler
    job_records: tuple = field(default_factory=tuple)
    #: the cache manager's lineage (``None`` for managers that keep none),
    #: for :meth:`explain`'s live reference breakdown; weak, so a kept
    #: report does not keep a finished run's lineage alive
    lineage_ref: "weakref.ref | None" = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_context(cls, ctx: "BlazeContext") -> "RunReport":
        """Snapshot a context's metrics and trace into a report."""
        m = ctx.metrics
        hub = getattr(ctx.cluster, "obs", None)
        service = getattr(ctx, "service", None)
        lineage = getattr(ctx.cache_manager, "lineage", None)
        return cls(
            act_seconds=ctx.now,
            job_count=m.job_count,
            task_count=m.task_count,
            breakdown=m.breakdown(),
            recompute_seconds=m.total.recompute_seconds,
            eviction_count=m.total_evictions,
            evictions_to_disk=sum(s.evictions_to_disk for s in m.executor_cache.values()),
            unpersists=sum(s.unpersists for s in m.executor_cache.values()),
            evicted_bytes_by_executor=m.evicted_bytes_by_executor(),
            disk_bytes_written_total=m.disk_bytes_written_total,
            disk_bytes_peak=m.disk_bytes_peak,
            ilp_solves=m.ilp_solves,
            ilp_migrations=m.ilp_migrations,
            profiling_seconds=m.profiling_seconds,
            decision_counters=m.decision_counters(),
            fault_counters=m.fault_counters(),
            recovery_samples=tuple(m.recovery_samples),
            service_counters=m.service_counters(),
            recompute_seconds_by_job={
                job_id: tm.recompute_seconds
                for job_id, tm in sorted(m.per_job.items())
            },
            events=ctx.tracer.events,
            access_counters=m.access_counters(),
            shard_counters=m.shard_counters(),
            elastic_counters=m.elastic_counters(),
            audit_entries=hub.audit.entries if hub is not None else (),
            samples=hub.sampler.samples if hub is not None else (),
            job_records=tuple(service.job_records) if service is not None else (),
            lineage_ref=weakref.ref(lineage) if lineage is not None else None,
        )

    # ------------------------------------------------------------------
    def _memoized(self, key: str, compute):
        """Replay-result memo (instance-local; equality/frozen unaffected)."""
        cache = self.__dict__.setdefault("_replay_memo", {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # ------------------------------------------------------------------
    # Convenience aggregates
    # ------------------------------------------------------------------
    @property
    def traced(self) -> bool:
        return bool(self.events)

    @property
    def total_seconds(self) -> float:
        return self.breakdown["total_seconds"]

    @property
    def disk_io_seconds(self) -> float:
        return self.breakdown["disk_io_seconds"]

    @property
    def compute_shuffle_seconds(self) -> float:
        return self.breakdown["compute_shuffle_seconds"]

    @property
    def evicted_bytes_total(self) -> float:
        return sum(self.evicted_bytes_by_executor.values())

    def recovery_calibration(self) -> dict[str, float]:
        """Aggregate error of the cost model's recovery predictions.

        Summarizes the ``recovery_samples`` collected while fault
        injection was active: count, mean and max relative error of
        predicted vs measured virtual-time recovery.
        """
        if not self.recovery_samples:
            return {"samples": 0, "mean_rel_error": 0.0, "max_rel_error": 0.0}
        errors = [sample.relative_error for sample in self.recovery_samples]
        return {
            "samples": len(errors),
            "mean_rel_error": sum(errors) / len(errors),
            "max_rel_error": max(errors),
        }

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def job_timelines(self) -> list[JobTimeline]:
        """Per-job (start, end) on the virtual clock, in job order."""
        return self._memoized("job_timelines", self._job_timelines)

    def _job_timelines(self) -> list[JobTimeline]:
        timelines = [
            JobTimeline(e.args["job_id"], e.ts, e.ts + (e.dur or 0.0))
            for e in self.events
            if e.kind == "span" and e.name == "job"
        ]
        return sorted(timelines, key=lambda t: t.job_id)

    def eviction_timeline(self, executor_id: int | None = None) -> list[EvictionEvent]:
        """Every eviction event in time order (optionally one executor)."""
        out = []
        for e in self.events:
            kind = _EVICTION_EVENTS.get(e.name)
            if kind is None:
                continue
            eid = e.pid - 1
            if executor_id is not None and eid != executor_id:
                continue
            out.append(
                EvictionEvent(e.ts, eid, e.args["rdd"], e.args["split"],
                              e.args["bytes"], kind)
            )
        return sorted(out, key=lambda ev: (ev.ts, ev.executor_id, ev.rdd_id, ev.split))

    def evicted_bytes_series(self) -> dict[int, list[tuple[float, float]]]:
        """Cumulative evicted bytes per executor over time (Fig. 3 replay)."""
        return self._memoized("evicted_bytes_series", self._evicted_bytes_series)

    def _evicted_bytes_series(self) -> dict[int, list[tuple[float, float]]]:
        series: dict[int, list[tuple[float, float]]] = {}
        totals: dict[int, float] = {}
        for ev in self.eviction_timeline():
            totals[ev.executor_id] = totals.get(ev.executor_id, 0.0) + ev.bytes
            series.setdefault(ev.executor_id, []).append((ev.ts, totals[ev.executor_id]))
        return series

    def hit_miss_series(self) -> list[HitMissPoint]:
        """Cumulative hit/miss counters after each cache access."""
        return self._memoized("hit_miss_series", self._hit_miss_series)

    def _hit_miss_series(self) -> list[HitMissPoint]:
        points: list[HitMissPoint] = []
        hits = misses = 0
        for e in self.events:
            if e.kind != "event":
                continue
            if e.name in _HIT_EVENTS:
                hits += 1
            elif e.name == _MISS_EVENT:
                misses += 1
            else:
                continue
            points.append(HitMissPoint(e.ts, hits, misses))
        return points

    def hit_ratio(self) -> float:
        """Final cache hit ratio (0.0 when untraced or no accesses)."""
        series = self.hit_miss_series()
        return series[-1].ratio if series else 0.0

    # ------------------------------------------------------------------
    # Observability views (``repro.obs``)
    # ------------------------------------------------------------------
    def explain(self, rdd_id: int, split: int) -> "ExplainAnswer":
        """Why was this partition admitted, rejected, or evicted?

        Answers from the decision audit log: every entry where the
        partition was the admission subject, and every entry where it was
        chosen as a victim.  Empty (``found`` False) unless the run had
        ``BlazeConfig.obs.enabled``.  Under a lineage-keeping manager
        (Blaze), and for as long as that manager is alive, the answer also
        carries who references the dataset right now, stream by stream —
        obs or not, it is a read of live state.
        """
        from ..obs.audit import explain_entries

        lineage = self.lineage_ref() if self.lineage_ref is not None else None
        references = lineage.reference_breakdown(rdd_id) if lineage is not None else ()
        return explain_entries(self.audit_entries, rdd_id, split, references)

    def critical_path(self) -> "CriticalPathReport":
        """Attribute each job's end-to-end virtual latency to phases.

        Reconstructs the span DAG from the trace (needs a traced run) and
        splits every job's submit-to-finish latency into queueing,
        compute, recompute-after-eviction, shuffle, disk/remote I/O, slot
        wait, and coordination — summing exactly to the latency.
        """
        from ..obs.critical_path import analyze_critical_paths

        return self._memoized(
            "critical_path",
            lambda: analyze_critical_paths(self.events, self.job_records),
        )

    def prometheus(self) -> str:
        """This report as Prometheus text exposition (version 0.0.4)."""
        from ..obs.prometheus import render_prometheus

        return render_prometheus(self)
