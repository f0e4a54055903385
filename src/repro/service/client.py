"""Per-application facade onto a shared :class:`~repro.service.JobService`.

A :class:`JobClient` is what application code sees as "the context": it
owns the application's RDD registry (ids may be deduped against other
applications by the service), its seed, and its tenant identity, while the
cluster, driver, and cache manager are shared service components.

:class:`JobHandle` is the submission-side view of one application admitted
via :meth:`JobService.submit`: poll :attr:`~JobHandle.done`, read
:meth:`~JobHandle.result` and per-job latency records after the service
drains its stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from ..dataflow.dag import JobStream
from ..dataflow.operators import OpCost, SizeModel
from ..dataflow.rdd import ParallelCollectionRDD, RDD, SourceRDD
from ..errors import DataflowError, ServiceError
from ..sim.rng import make_rng
from ..tracing.report import RunReport

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.collector import MetricsCollector
    from .service import JobService, _AppRuntime


class JobClient:
    """Builds datasets and submits jobs on behalf of one application."""

    def __init__(
        self,
        service: "JobService",
        tenant: str = "default",
        seed: int | None = None,
    ) -> None:
        self.service = service
        self.tenant = tenant
        self.seed = service.seed if seed is None else int(seed)
        self._rdds: dict[int, RDD] = {}
        self._order: list[int] = []
        #: occurrence counters disambiguating repeated identical signatures
        #: within this application (loop iterations rebuilding the same op).
        self._sig_counts: dict = {}
        self._stopped = False
        #: this application's jobs, on its own job axis; the service tells
        #: the cache manager when it opens (the application starts) and
        #: :meth:`stop` when it closes.
        self.stream = JobStream(f"{tenant}-session")
        #: set by the service for threaded (submitted) applications.
        self._app: "_AppRuntime | None" = None

    # ------------------------------------------------------------------
    # Registry / determinism plumbing
    # ------------------------------------------------------------------
    def register_rdd(self, rdd: RDD, sig_extra: tuple = ()) -> int:
        """Assign a (possibly cross-application shared) global RDD id."""
        gid = self.service.assign_gid(self, rdd, sig_extra)
        self._rdds[gid] = rdd
        self._order.append(gid)
        return gid

    def all_rdds(self) -> list[RDD]:
        """Every dataset this application registered, in registration order."""
        return [self._rdds[g] for g in self._order]

    @property
    def num_rdds(self) -> int:
        return len(self._order)

    def rng_for(self, rdd_id: int, split: int) -> np.random.Generator:
        """Deterministic per-partition generator (recomputation-stable).

        Keyed by the application seed — which is part of the dedup
        signature, so a shared global id always generates identical data
        regardless of which application recomputes it.
        """
        return make_rng(self.seed, rdd_id, split)

    # ------------------------------------------------------------------
    # Dataset constructors
    # ------------------------------------------------------------------
    def parallelize(self, data: list, num_partitions: int | None = None, **kwargs) -> RDD:
        """Distribute a driver-side collection."""
        n = num_partitions or self.config.num_executors
        return ParallelCollectionRDD(self, list(data), n, **kwargs)

    def source(
        self,
        gen_fn: Callable[[int, np.random.Generator], Iterable],
        num_partitions: int,
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        name: str | None = None,
    ) -> RDD:
        """A deterministic generated dataset (synthetic workload input)."""
        return SourceRDD(
            self, gen_fn, num_partitions,
            op_cost=op_cost, size_model=size_model, name=name,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_job(self, final_rdd: RDD, action_fn: Callable[[int, list], Any]) -> list:
        """Submit an action over ``final_rdd``; returns per-partition results.

        Inline clients (sessions, the legacy shim) execute immediately;
        clients of a submitted application post the request to the service
        and block until the inter-job policy grants it.
        """
        if self._stopped:
            raise DataflowError("context already stopped")
        if final_rdd.ctx is not self:
            raise DataflowError("RDD belongs to a different context")
        return self.service.run_client_job(self, final_rdd, action_fn)

    def unpersist_rdd(self, rdd: RDD) -> None:
        self.driver.unpersist_rdd(rdd)

    # ------------------------------------------------------------------
    # Shared-engine views
    # ------------------------------------------------------------------
    @property
    def config(self):
        return self.service.config

    @property
    def cluster(self):
        return self.service.cluster

    @property
    def driver(self):
        return self.service.driver

    @property
    def cache_manager(self):
        return self.service.cache_manager

    @property
    def tracer(self):
        return self.service.tracer

    @property
    def fault_injector(self):
        return self.service.fault_injector

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time (the shared service clock)."""
        return self.cluster.clock.now

    @property
    def metrics(self) -> "MetricsCollector":
        return self.cluster.metrics

    def note_profiling_seconds(self, seconds: float) -> None:
        """Attribute dependency-extraction overhead to this run's ledger.

        The facade for what harnesses previously wrote into
        ``ctx.metrics.profiling_seconds`` directly.
        """
        self.metrics.profiling_seconds = float(seconds)

    def report(self) -> RunReport:
        """The stable results façade: metric aggregates plus trace replay.

        Benchmarks and examples should read results from here instead of
        reaching into ``ctx.cluster.metrics``.  Callable before or after
        :meth:`stop`; the metric ledgers survive shutdown.
        """
        return RunReport.from_context(self)

    @property
    def jobs(self):
        """Jobs submitted so far (service-wide), in order."""
        return self.driver.job_log

    def stop(self) -> None:
        """Finish this application; further jobs from it are rejected."""
        if not self._stopped:
            self._stopped = True
            self.cache_manager.on_stream_close(self.stream)

    def __enter__(self) -> "JobClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.cache_manager.name} "
            f"tenant={self.tenant!r} rdds={self.num_rdds} t={self.now:.2f}s>"
        )


class JobHandle:
    """Submission-side view of one application admitted to the service."""

    def __init__(self, app: "_AppRuntime", service: "JobService") -> None:
        self._app = app
        self._service = service

    @property
    def seq(self) -> int:
        return self._app.seq

    @property
    def tenant(self) -> str:
        return self._app.tenant

    @property
    def priority(self) -> int:
        return self._app.priority

    @property
    def arrival_time(self) -> float:
        return self._app.arrival_time

    @property
    def done(self) -> bool:
        return self._app.finished

    def result(self) -> Any:
        """The application function's return value.

        Raises :class:`~repro.errors.ServiceError` until the service has
        drained the stream (``JobService.run()``); re-raises the
        application's own exception if it failed.
        """
        app = self._app
        if not app.finished:
            raise ServiceError(
                f"application #{app.seq} has not completed; call JobService.run() first"
            )
        if app.error is not None:
            raise app.error
        return app.result

    def report(self) -> RunReport:
        """Service-wide run report (shared engine; see docs/service.md)."""
        return RunReport.from_context(self._app.client)

    @property
    def job_records(self):
        """Per-job latency records for this application's jobs."""
        return [r for r in self._service.job_records if r.app_seq == self._app.seq]

    @property
    def latency(self) -> float:
        """Virtual seconds from arrival to application completion."""
        app = self._app
        if not app.finished:
            raise ServiceError(f"application #{app.seq} has not completed")
        return app.completion_time - app.arrival_time

    def __repr__(self) -> str:
        app = self._app
        state = "done" if app.finished else "pending"
        return f"<JobHandle #{app.seq} tenant={app.tenant!r} {state}>"
