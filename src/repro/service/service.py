"""The multi-tenant job service: one shared engine, many applications.

A :class:`JobService` owns the simulated cluster, the shared driver, and
the cache manager (the system under test), and admits a stream of
applications — each with a tenant identity, a priority, and an arrival
time on the virtual clock.  Applications interleave at *job* granularity:
whenever several admitted applications have an action pending, the
pluggable inter-job policy picks which one the shared driver executes
next.

Determinism: application code runs on cooperative worker threads, but
exactly one thread is ever runnable — the service hands a single token
back and forth with :class:`threading.Event` pairs, and every scheduling
decision is a pure function of deterministic state.  Same seed, same
submissions → byte-identical merged trace.

The legacy single-application ``BlazeContext`` is a
:class:`~repro.service.client.JobClient` over a private one-tenant
service, so existing programs keep their exact behavior (and traces).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..cluster.cachemanager import CacheManager
from ..cluster.cluster import Cluster
from ..cluster.driver import Driver
from ..config import BlazeConfig, ClusterConfig, ServiceConfig
from ..elastic.schedule import ScaleSchedule
from ..errors import ServiceError
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..tracing.tracer import NULL_TRACER, Tracer
from .arrivals import PoissonArrivals
from .client import JobClient, JobHandle
from .identity import build_signature, contains_opaque
from .policy import make_inter_job_policy
from .tenancy import DEFAULT_TENANT, TenantRegistry

#: trace pid namespace for service-level instants (driver=0, executors=1+,
#: profiler=1000).
SERVICE_PID = 2000

#: linear virtual-time backoff per task reattempt under fault injection
FAULT_RETRY_BACKOFF_SECONDS = 0.25


@dataclass(frozen=True)
class JobRecord:
    """One driver job executed on behalf of an application."""

    app_seq: int  # -1 for inline session clients
    tenant: str
    job_id: int
    submit_time: float
    start_time: float
    end_time: float

    @property
    def latency(self) -> float:
        """Virtual seconds from the job request to its completion."""
        return self.end_time - self.submit_time

    @property
    def queue_delay(self) -> float:
        """Virtual seconds the request waited for the inter-job policy."""
        return self.start_time - self.submit_time


@dataclass
class _AppRuntime:
    """Service-internal state of one admitted application."""

    seq: int
    tenant: str
    priority: int
    arrival_time: float
    fn: Callable[[JobClient], Any]
    client: JobClient
    name: str
    state: str = "queued"  # queued | pending | granted | running | done
    started: bool = False
    finished: bool = False
    result: Any = None
    error: BaseException | None = None
    request_time: float = 0.0
    completion_time: float = 0.0
    thread: threading.Thread | None = None
    grant: threading.Event = field(default_factory=threading.Event)
    yielded: threading.Event = field(default_factory=threading.Event)


class JobService:
    """Admits applications and interleaves their jobs on one shared fleet."""

    def __init__(
        self,
        cluster_config: ClusterConfig | None = None,
        cache_manager: CacheManager | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
        blaze_config: BlazeConfig | None = None,
        fault_schedule: FaultSchedule | None = None,
        service_config: ServiceConfig | None = None,
        scale_schedule: ScaleSchedule | None = None,
    ) -> None:
        if cache_manager is None:
            from ..caching.manager import SparkCacheManager

            cache_manager = SparkCacheManager()
        service_config = service_config or ServiceConfig()
        blaze_config = blaze_config or BlazeConfig()
        self.config = cluster_config or ClusterConfig()
        self.service_config = service_config
        self.seed = int(seed)
        if tracer is None:
            tracer = NULL_TRACER
        self.tracer = tracer
        self.cluster = Cluster(self.config, tracer=tracer)
        self.cluster.tenancy = TenantRegistry(service_config.tenant_quotas)
        self.cluster.tenancy.cluster = self.cluster
        # Observability hub: must exist before the driver attaches the
        # cache manager (attach() binds the audit log from cluster.obs).
        # Pure reader — enabling it cannot change a trace or a decision.
        if blaze_config.obs.enabled:
            from ..obs.hub import ObsHub

            self.cluster.obs = ObsHub(self.cluster)
            self.cluster.obs.bind_service(self)
        # Each scenario layer is armed by its argument alone.  A fault
        # schedule (even an empty one: calibration only) builds the injector.
        self.fault_injector: FaultInjector | None = None
        if fault_schedule is not None:
            self.fault_injector = FaultInjector(
                fault_schedule, self.cluster, cache_manager,
                max_task_retries=blaze_config.fault_max_task_retries,
                retry_backoff_seconds=FAULT_RETRY_BACKOFF_SECONDS,
            )
        # A scale schedule builds the remote-memory tier (``repro.elastic``);
        # an empty one keeps the fleet fixed, a non-empty one also builds the
        # fleet controller.  The cache manager attaches after this and
        # prices the tier the cluster has.
        self.fleet_controller = None
        if scale_schedule is not None:
            elastic = blaze_config.elastic
            self.cluster.enable_remote_tier(elastic.remote_memory)
            if len(scale_schedule):
                from ..elastic.controller import FleetController

                self.fleet_controller = FleetController(
                    scale_schedule, self.cluster, cache_manager, elastic
                )
        self.driver = Driver(
            self.cluster, cache_manager, fault_injector=self.fault_injector
        )
        self.driver.fleet = self.fleet_controller
        self.cache_manager = cache_manager
        #: the sharded simulation engine (``repro.shard``): stages run as
        #: supersteps with worker-speculated partition results while this
        #: process keeps the authoritative clock/cache/trace.  Kill switch
        #: ``BlazeConfig.sharded_engine`` defaults off.
        self.shard_coordinator = None
        if blaze_config.sharded_engine:
            from ..shard.coordinator import ShardCoordinator

            self.shard_coordinator = ShardCoordinator(self.driver, blaze_config)

        self.job_records: list[JobRecord] = []
        self._apps: list[_AppRuntime] = []
        self._policy = make_inter_job_policy(service_config.inter_job_policy)
        self._arrivals = None  # built lazily; only submit() without a time needs it
        self._dedup = service_config.dedup_enabled
        self._next_gid = itertools.count()
        self._shared_gids: dict = {}
        self._shutdown = False

    # ------------------------------------------------------------------
    # Global RDD ids (cross-application lineage dedup)
    # ------------------------------------------------------------------
    def assign_gid(self, client: JobClient, rdd, sig_extra: tuple) -> int:
        """Map a newly constructed RDD onto a global id.

        With dedup off (or an unfingerprintable construction) ids are
        plain sequential.  With dedup on, structurally identical
        registrations — same operator, same function bytecode and scalar
        captures, same models, same parent gids, same seed, same
        per-application occurrence index — share one id, so their cached
        blocks are interchangeable.  A single application always sees
        sequential ids either way.
        """
        if not self._dedup:
            return next(self._next_gid)
        sig = build_signature(client.seed, rdd, sig_extra)
        if contains_opaque(sig):
            return next(self._next_gid)
        occurrence = client._sig_counts.get(sig, 0)
        client._sig_counts[sig] = occurrence + 1
        key = (sig, occurrence)
        gid = self._shared_gids.get(key)
        if gid is None:
            gid = next(self._next_gid)
            self._shared_gids[key] = gid
        else:
            self.metrics.gids_deduped += 1
        return gid

    # ------------------------------------------------------------------
    # Sessions (inline clients)
    # ------------------------------------------------------------------
    def session(self, tenant: str = DEFAULT_TENANT, seed: int | None = None) -> JobClient:
        """An inline client: jobs run immediately on the caller's thread.

        This is the compatibility path (``BlazeContext`` is a one-tenant
        session) and the interactive path for tests that want to drive two
        tenants' jobs in an explicit order.
        """
        if self._shutdown:
            raise ServiceError("service already shut down")
        client = JobClient(self, tenant=tenant, seed=seed)
        self.cache_manager.on_stream_open(client.stream)
        return client

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        app_fn: Callable[[JobClient], Any],
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        arrival_time: float | None = None,
        seed: int | None = None,
        name: str | None = None,
    ) -> JobHandle:
        """Admit an application ``app_fn(client) -> result`` to the stream.

        Without an explicit ``arrival_time`` a Poisson process at
        ``ServiceConfig.arrival_rate_per_sec``, drawn from the service
        seed, assigns the next one.  The returned handle resolves once
        :meth:`run` drains the stream.
        """
        if self._shutdown:
            raise ServiceError("service already shut down")
        if not callable(app_fn):
            raise ServiceError("submit() needs a callable application function")
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string")
        if arrival_time is None:
            if self._arrivals is None:
                self._arrivals = PoissonArrivals(
                    self.seed, self.service_config.arrival_rate_per_sec
                )
            arrival_time = self._arrivals.next_time()
        elif arrival_time < 0:
            raise ServiceError("arrival_time must be non-negative")
        seq = len(self._apps)
        client = JobClient(self, tenant=tenant, seed=seed)
        app = _AppRuntime(
            seq=seq, tenant=tenant, priority=int(priority),
            arrival_time=float(arrival_time), fn=app_fn, client=client,
            name=name or f"app{seq}",
        )
        client._app = app
        client.stream.name = app.name
        self._apps.append(app)
        return JobHandle(app, self)

    def run(self) -> list[JobHandle]:
        """Drain the admitted stream to completion; returns all handles.

        Applications are started as the virtual clock reaches their
        arrival times; whenever several have a job pending, the inter-job
        policy picks the next grant.  When nothing is pending and
        arrivals remain, the clock advances to the next arrival.
        """
        if self._shutdown:
            raise ServiceError("service already shut down")
        clock = self.cluster.clock
        queue = deque(
            sorted(
                (a for a in self._apps if not a.started),
                key=lambda a: (a.arrival_time, a.seq),
            )
        )
        live: list[_AppRuntime] = []
        while queue or live:
            while queue and queue[0].arrival_time <= clock.now:
                app = queue.popleft()
                self._start_app(app)
                if not app.finished:
                    live.append(app)
            pending = [a for a in live if a.state == "pending"]
            if pending:
                app = self._policy.select(pending)
                self._grant(app)
                if app.finished:
                    live.remove(app)
                    self._trace_service("service.app_done", app)
                continue
            if queue:
                if queue[0].arrival_time > clock.now:
                    clock.advance_to(queue[0].arrival_time)
                continue
            live = [a for a in live if not a.finished]
            if live:
                # Unreachable with the cooperative protocol: a started,
                # unfinished app is always parked on a pending request.
                raise ServiceError(
                    "service stalled: live applications with no pending requests"
                )
        return [JobHandle(a, self) for a in self._apps]

    # ------------------------------------------------------------------
    # Cooperative execution protocol
    # ------------------------------------------------------------------
    def _start_app(self, app: _AppRuntime) -> None:
        app.started = True
        self.metrics.service_apps += 1
        self._trace_service("service.app_admitted", app)
        # The cache manager learns of the application now, at its arrival
        # on the virtual clock — never from the not-yet-arrived queue.
        self.cache_manager.on_stream_open(app.client.stream)
        app.thread = threading.Thread(
            target=self._app_main, args=(app,),
            name=f"repro-{app.name}", daemon=True,
        )
        app.thread.start()
        app.yielded.wait()
        app.yielded.clear()

    def _app_main(self, app: _AppRuntime) -> None:
        try:
            app.result = app.fn(app.client)
        except BaseException as exc:  # surfaced via JobHandle.result()
            app.error = exc
        finally:
            app.finished = True
            app.state = "done"
            app.completion_time = self.cluster.clock.now
            app.client.stop()
            app.yielded.set()

    def _grant(self, app: _AppRuntime) -> None:
        app.state = "granted"
        self._trace_service("service.grant", app)
        app.grant.set()
        app.yielded.wait()
        app.yielded.clear()

    def run_client_job(self, client: JobClient, final_rdd, action_fn) -> list:
        """Execute (inline) or enqueue (threaded) one action job."""
        app = client._app
        if app is None:
            return self._execute_job(client, final_rdd, action_fn)
        # On the application's worker thread: park until granted.
        app.request_time = self.cluster.clock.now
        app.state = "pending"
        app.yielded.set()
        app.grant.wait()
        app.grant.clear()
        app.state = "running"
        return self._execute_job(client, final_rdd, action_fn)

    def _execute_job(self, client: JobClient, final_rdd, action_fn) -> list:
        tenancy = self.cluster.tenancy
        app = client._app
        submit_time = app.request_time if app is not None else self.cluster.clock.now
        start = self.cluster.clock.now
        previous_tenant = tenancy.current_tenant
        tenancy.current_tenant = client.tenant
        try:
            result = self.driver.run_job(final_rdd, action_fn, client.stream)
        finally:
            tenancy.current_tenant = previous_tenant
        end = self.cluster.clock.now
        record = JobRecord(
            app_seq=app.seq if app is not None else -1,
            tenant=client.tenant,
            job_id=self.driver.job_log[-1].job_id,
            submit_time=submit_time,
            start_time=start,
            end_time=end,
        )
        self.job_records.append(record)
        self.metrics.service_jobs += 1
        if app is not None:
            self._policy.on_job_complete(app, end - start)
        return result

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def now(self) -> float:
        return self.cluster.clock.now

    def job_latencies(self) -> list[float]:
        """Latency (request -> completion) of every executed job, in order."""
        return [r.latency for r in self.job_records]

    def _trace_service(self, name: str, app: _AppRuntime) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                name, "service", pid=SERVICE_PID,
                app=app.seq, tenant=app.tenant, state=app.state,
            )

    def shutdown(self) -> None:
        """Release the run's block-store and shuffle state (idempotent)."""
        if self._shutdown:
            return
        self._shutdown = True
        if self.shard_coordinator is not None:
            self.shard_coordinator.shutdown()
        for executor in self.cluster.executors:
            executor.bm.release()
        self.cluster.shuffle.release()
        self.cache_manager.detach()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"<JobService {self.cache_manager.name} apps={len(self._apps)} "
            f"jobs={len(self.job_records)} t={self.now:.2f}s>"
        )
