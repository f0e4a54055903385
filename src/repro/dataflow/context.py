"""The driver-side entry point (Spark's ``SparkContext`` analogue).

Since the job-service redesign, :class:`BlazeContext` is a compatibility
shim: a one-tenant :class:`~repro.service.JobClient` over a private
:class:`~repro.service.JobService` that owns the cluster, the cache
manager (the system under test), and the driver.  The constructor, the
dataset-building surface, and — crucially — the produced traces are
unchanged: a ``BlazeContext`` run is byte-identical to what the
pre-service engine emitted.

Multi-application programs should use :class:`~repro.service.JobService`
directly (see ``docs/service.md``).
"""

from __future__ import annotations

from ..cluster.cachemanager import CacheManager
from ..config import BlazeConfig, ClusterConfig, ServiceConfig
from ..elastic.schedule import ScaleSchedule
from ..faults.schedule import FaultSchedule
from ..service.client import JobClient
from ..service.service import JobService
from ..service.tenancy import DEFAULT_TENANT
from ..tracing.tracer import Tracer


class BlazeContext(JobClient):
    """Builds datasets and runs jobs on a (privately owned) simulated cluster."""

    def __init__(
        self,
        cluster_config: ClusterConfig | None = None,
        cache_manager: CacheManager | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
        blaze_config: "BlazeConfig | None" = None,
        fault_schedule: "FaultSchedule | None" = None,
        scale_schedule: "ScaleSchedule | None" = None,
    ) -> None:
        # Identity RDD ids (dedup off): with one application there is
        # nothing to share, and sequential ids keep the legacy numbering
        # without fingerprinting overhead.  The context is a session, not
        # a submission, so its trace carries no ``service.*`` instants.
        service_config = ServiceConfig(dedup_enabled=False)
        service = JobService(
            cluster_config=cluster_config,
            cache_manager=cache_manager,
            seed=seed,
            tracer=tracer,
            blaze_config=blaze_config,
            fault_schedule=fault_schedule,
            service_config=service_config,
            scale_schedule=scale_schedule,
        )
        super().__init__(service, tenant=DEFAULT_TENANT, seed=seed)
        # The one application starts now (what ``JobService.session`` does).
        service.cache_manager.on_stream_open(self.stream)

    def stop(self) -> None:
        """Finish the application; further jobs are rejected.

        Idempotent.  Because this context owns its service, stopping also
        releases the run's block-store and shuffle state so repeated
        context creation in one process cannot leak blocks between
        experiments; metric ledgers and the trace remain readable.
        """
        super().stop()
        self.service.shutdown()

    def __enter__(self) -> "BlazeContext":
        return self

    def __repr__(self) -> str:
        return (
            f"<BlazeContext {self.cache_manager.name} "
            f"rdds={self.num_rdds} t={self.now:.2f}s>"
        )
