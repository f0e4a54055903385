"""Outside-in span recording for the traced benchmark run.

Nothing under ``src/`` knows it is being traced.  :class:`SpanRecorder`
swaps a fixed list of public functions — the seams between ``repro``
modules — for timing wrappers, the run executes, and the originals go
back.  Only functions called at most once per task, partition or
decision are wrapped, never per-record ones.

Each wrapper appends two events (enter, exit) to in-memory arrays; the
spans and their self times are reduced from that log after the run.  The
service runs applications on cooperative threads with exactly one
runnable at a time, so the log is one logical timeline: the interval
between two consecutive events belongs to the innermost open span of the
thread that logged the earlier one.  For a single thread that is exactly
"span duration minus child spans"; across a thread hand-off it charges
the hand-off to the service span on either side of it.  Self times
therefore sum to the root span with no remainder.
"""

from __future__ import annotations

import sys
import time
from array import array
from threading import get_ident
from typing import Any, Callable, NamedTuple

from repro.caching.manager import SparkCacheManager
from repro.cluster.blockmanager import BlockManager
from repro.cluster.driver import Driver
from repro.cluster.scheduler import SlotScheduler
from repro.cluster.shuffle import ShuffleManager
from repro.core import ilp, profiler
from repro.core.decision_cache import DecisionCostCache, VictimIndex
from repro.core.udl import BlazeCacheManager
from repro.dataflow.fusion import FusionPlanner
from repro.service.client import JobClient, JobHandle
from repro.service.service import JobService
from repro.storage.backend import ColumnarBackend
from repro.storage.columnar import ColumnarBatch
from repro.storage.kernels import KernelEngine

ROOT = "experiments.residual"
ACTION = "workloads.action"
DAG_BUILD = "workloads.dag_build"

#: (layer, owner, attribute): the seams, in the order layers are reported
TARGETS: tuple[tuple[str, Any, str], ...] = (
    ("core.profiler", profiler, "run_dependency_extraction"),
    ("core.udl", BlazeCacheManager, "handle_cache"),
    ("core.udl", BlazeCacheManager, "on_job_submit"),
    ("core.udl", BlazeCacheManager, "on_partition_computed"),
    ("core.udl", BlazeCacheManager, "on_stage_complete"),
    ("core.ilp", ilp, "solve_partition_states"),
    ("core.decision_cache", VictimIndex, "select"),
    ("core.decision_cache", VictimIndex, "ensure_current"),
    ("core.decision_cache", DecisionCostCache, "touch"),
    ("caching.manager", SparkCacheManager, "handle_cache"),
    ("cluster.scheduler", SlotScheduler, "run_stage"),
    ("cluster.driver", Driver, "run_job"),
    ("cluster.driver", Driver, "materialize"),
    ("cluster.shuffle", ShuffleManager, "write"),
    ("cluster.shuffle", ShuffleManager, "fetch"),
    ("cluster.blockmanager", BlockManager, "insert_memory"),
    ("cluster.blockmanager", BlockManager, "spill_to_disk"),
    ("cluster.blockmanager", BlockManager, "read_from_disk"),
    ("cluster.blockmanager", BlockManager, "discard"),
    ("dataflow.fusion", FusionPlanner, "execute"),
    ("storage.kernels", KernelEngine, "run_chain"),
    ("storage.columnar", ColumnarBackend, "encode_for_cache"),
    ("storage.columnar", ColumnarBatch, "transcode"),
    ("service", JobService, "submit"),
    ("service", JobService, "run"),
    ("service", JobService, "run_client_job"),
    ("service.identity", JobService, "assign_gid"),
    ("metrics.report", JobClient, "report"),
    ("metrics.report", JobHandle, "report"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _o, _a in TARGETS)) + (
    DAG_BUILD, ACTION, ROOT,
)


class Span(NamedTuple):
    name: str  # the layer
    fn: str  # the wrapped function, e.g. ``ShuffleManager.write``
    start_s: float
    end_s: float
    parent: int  # index into the span list, -1 for the root
    self_s: float
    workload: str


class SpanRecorder:
    """Installs the wrappers, holds the event log, reduces it to spans."""

    def __init__(self, workload: str, workload_class: type) -> None:
        self.workload = workload
        self._targets = TARGETS + ((DAG_BUILD, workload_class, "run"),)
        #: event code -> (layer, function name), grown as wrappers are made
        self._names: list[tuple[str, str]] = []
        self._times = array("q")  # perf_counter_ns at each event
        self._codes = array("h")  # index into _names on enter, -1 on exit
        self._threads = array("Q")
        #: (owner, attribute, original) for everything currently swapped
        self._installed: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn: Callable, layer: str, label: str) -> Callable:
        if (layer, label) not in self._names:
            self._names.append((layer, label))
        code = self._names.index((layer, label))
        t_add, c_add, th_add = self._times.append, self._codes.append, self._threads.append
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            t_add(now()); c_add(code); th_add(get_ident())
            try:
                return fn(*args, **kwargs)
            finally:
                t_add(now()); c_add(-1); th_add(get_ident())

        traced.__wrapped__ = fn
        return traced

    def _action_timing_run_job(self, run_job: Callable) -> Callable:
        """``JobClient.run_job`` with its action closure timed as a span."""

        def traced(client, final_rdd, action_fn):
            return run_job(client, final_rdd, self._timed(action_fn, ACTION, "action_fn"))

        traced.__wrapped__ = run_job
        return traced

    def call(self, fn: Callable, *args) -> Any:
        """Run ``fn`` as the root span."""
        return self._timed(fn, ROOT, "root")(*args)

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        for layer, owner, attr in self._targets:
            original = vars(owner)[attr]
            label = f"{getattr(owner, '__qualname__', owner.__name__.rpartition('.')[2])}.{attr}"
            self._swap(owner, attr, original, self._timed(original, layer, label))
        run_job = vars(JobClient)["run_job"]
        self._swap(JobClient, "run_job", run_job, self._action_timing_run_job(run_job))

    def _swap(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        if isinstance(owner, type):
            holders = [owner]
        else:
            # a module-level function: other modules hold it by name too
            # (``from .ilp import solve_partition_states``)
            holders = [
                m for m in list(sys.modules.values())
                if m is not None and getattr(m, "__dict__", {}).get(attr) is original
            ]
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._installed.append((holder, attr, original))

    def remove(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def wrapped_attributes(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) for every seam this recorder swaps."""
        out = [(o, a, vars(o)[a]) for _l, o, a in self._targets]
        out.append((JobClient, "run_job", vars(JobClient)["run_job"]))
        return out

    # -- reduction -----------------------------------------------------
    def spans(self) -> list[Span]:
        """Reduce the event log to spans with self times (see module doc)."""
        raw: list[list] = []  # [code, start_ns, end_ns, parent, self_ns]
        stacks: dict[int, list[int]] = {}
        prev_t = prev_thread = None
        for t, code, thread in zip(self._times, self._codes, self._threads):
            if prev_t is not None and stacks[prev_thread]:
                raw[stacks[prev_thread][-1]][4] += t - prev_t
            stack = stacks.get(thread)
            if stack is None:
                # a new application thread runs on behalf of whatever
                # span was open when it was started
                stack = stacks[thread] = (
                    [stacks[prev_thread][-1]] if prev_thread is not None else []
                )
            if code >= 0:
                raw.append([code, t, t, stack[-1] if stack else -1, 0])
                stack.append(len(raw) - 1)
            else:
                raw[stack.pop()][2] = t
            prev_t, prev_thread = t, thread
        return [
            Span(*self._names[c], s / 1e9, e / 1e9, p, own / 1e9, self.workload)
            for c, s, e, p, own in raw
        ]


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per layer; every layer present, 0.0 when it never ran."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        out[span.name] += span.self_s
    return out
