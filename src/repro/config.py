"""Configuration objects for the simulated cluster and the Blaze stack.

The defaults model the paper's testbed (11 r5a.2xlarge nodes, 20 executors,
a 170 GB aggregate memory store and gp2 SSDs) scaled down so the simulation
runs on a laptop.  All capacities are in *modeled* bytes: workloads declare
per-element sizes so the working set can exceed the memory store without the
Python process actually holding gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigError

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class DiskConfig:
    """Performance model of the per-executor disk caching store.

    ``read_bytes_per_sec``/``write_bytes_per_sec`` model the sequential
    throughput of the paper's gp2 SSD.  Serialization costs are charged per
    byte on every disk write, deserialization on every read, scaled by the
    workload-specific ``ser_factor`` of the partition being moved (the paper
    observes SVD++ partitions serialize 2.5-6.4x slower than others).
    """

    read_bytes_per_sec: float = 250.0 * MiB
    write_bytes_per_sec: float = 200.0 * MiB
    ser_seconds_per_byte: float = 1.0 / (400.0 * MiB)
    deser_seconds_per_byte: float = 1.0 / (500.0 * MiB)
    capacity_bytes: float = 100.0 * GiB

    def __post_init__(self) -> None:
        if self.read_bytes_per_sec <= 0 or self.write_bytes_per_sec <= 0:
            raise ConfigError("disk throughput must be positive")
        if self.capacity_bytes <= 0:
            raise ConfigError("disk capacity must be positive")


@dataclass(frozen=True)
class NetworkConfig:
    """Network model used for shuffle fetches and remote cache reads."""

    bytes_per_sec: float = 1.25 * GiB  # 10 Gbps
    latency_seconds: float = 0.001

    def __post_init__(self) -> None:
        if self.bytes_per_sec <= 0:
            raise ConfigError("network throughput must be positive")
        if self.latency_seconds < 0:
            raise ConfigError("network latency must be non-negative")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    The paper runs 20 executors with 25 GB each and empirically caps the
    aggregate memory store at 170 GB (8.5 GB per executor).  The default
    here keeps the same *ratios* at one tenth of the absolute scale.
    """

    num_executors: int = 10
    slots_per_executor: int = 4
    memory_store_bytes: float = 8.5 * GiB
    disk: DiskConfig = field(default_factory=DiskConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    # How many completed jobs keep their shuffle outputs alive.  Spark's
    # ContextCleaner drops shuffle files once the producing RDDs go out of
    # scope; one job of retention reproduces the iterative-workload pattern
    # where recomputation has to re-run upstream map stages.
    shuffle_retention_jobs: int = 1

    def __post_init__(self) -> None:
        if self.num_executors <= 0:
            raise ConfigError("num_executors must be positive")
        if self.slots_per_executor <= 0:
            raise ConfigError("slots_per_executor must be positive")
        if self.memory_store_bytes <= 0:
            raise ConfigError("memory_store_bytes must be positive")
        if self.shuffle_retention_jobs < 0:
            raise ConfigError("shuffle_retention_jobs must be >= 0")

    @property
    def total_memory_store_bytes(self) -> float:
        return self.memory_store_bytes * self.num_executors

    @property
    def total_slots(self) -> int:
        return self.slots_per_executor * self.num_executors


@dataclass(frozen=True)
class RemoteMemoryConfig:
    """Performance model of the cluster-wide remote-memory tier.

    The tier sits between the per-executor memory stores and their disks
    (a Sparkle-style disaggregated pool): one shared, capacity-limited
    store the whole fleet reads and writes over the network.  Blocks
    demoted here survive executor preemption — the pool belongs to the
    cluster, not to any executor — which is what makes it interesting
    under elastic fleets.  Reads and writes are charged a fixed network
    latency plus throughput time plus (de)serialization scaled by the
    block's ``ser_factor``, mirroring the disk model so Eq. 3/Eq. 4
    recovery predictions stay exact for remote-resident partitions.
    """

    capacity_bytes: float = 32.0 * GiB
    read_bytes_per_sec: float = 1.0 * GiB
    write_bytes_per_sec: float = 1.0 * GiB
    ser_seconds_per_byte: float = 1.0 / (400.0 * MiB)
    deser_seconds_per_byte: float = 1.0 / (500.0 * MiB)
    latency_seconds: float = 0.0005

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("remote memory capacity must be positive")
        if self.read_bytes_per_sec <= 0 or self.write_bytes_per_sec <= 0:
            raise ConfigError("remote memory throughput must be positive")
        if self.ser_seconds_per_byte < 0 or self.deser_seconds_per_byte < 0:
            raise ConfigError("remote memory ser/deser costs must be >= 0")
        if self.latency_seconds < 0:
            raise ConfigError("remote memory latency must be non-negative")


@dataclass(frozen=True)
class ElasticConfig:
    """Tunables of the elastic-fleet subsystem (``repro.elastic``).

    A :class:`~repro.elastic.ScaleSchedule` passed to the context is the
    switch: it builds the remote-memory tier (between memory and disk on
    the eviction ladder), and a non-empty one also fires scale events at
    stage boundaries on the virtual clock (scale-up activates executors
    up to ``max_executors``, scale-down drains and deactivates down to
    ``min_executors``, preemption reuses the fault layer's crash wipe).
    Without a schedule these tunables are unread.
    """

    min_executors: int = 1
    max_executors: int = 64
    remote_memory: RemoteMemoryConfig = field(default_factory=RemoteMemoryConfig)

    def __post_init__(self) -> None:
        if self.min_executors < 1:
            raise ConfigError("min_executors must be >= 1")
        if self.max_executors < self.min_executors:
            raise ConfigError("max_executors must be >= min_executors")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the multi-tenant job service (``repro.service``).

    The service admits a seeded stream of applications over the virtual
    clock and interleaves their jobs on one shared executor fleet.  All
    knobs reach it as ``JobService(service_config=...)``; a
    ``BlazeContext`` is a one-tenant session with dedup off.
    """

    # Mean rate of the Poisson process that assigns arrival times to
    # submissions without one; the gaps are drawn from the service seed.
    arrival_rate_per_sec: float = 1.0

    # Inter-job scheduling policy: "fifo" grants pending job requests in
    # submission order; "fair" grants the tenant with the least consumed
    # virtual service time (deterministic tie-breaks on tenant name and
    # submission order).
    inter_job_policy: str = "fifo"

    # Per-tenant memory-store quotas in bytes (aggregate across the
    # executor fleet).  Tenants absent from the mapping are unlimited.
    # An empty mapping disables quota enforcement entirely, so a
    # one-tenant session runs no fairness tiers.
    tenant_quotas: Mapping[str, float] = field(default_factory=dict)

    # Structural cross-application lineage dedup: identical lineage
    # prefixes submitted by different tenants map to the same global RDD
    # ids, so their cached blocks are shared (hits on another tenant's
    # block trace as ``cache.shared_hit``).  Kill switch for the service
    # path; the BlazeContext shim always runs with identity ids.
    dedup_enabled: bool = True

    def __post_init__(self) -> None:
        if self.arrival_rate_per_sec <= 0:
            raise ConfigError("arrival_rate_per_sec must be positive")
        if self.inter_job_policy not in ("fifo", "fair"):
            raise ConfigError(
                f"unknown inter_job_policy: {self.inter_job_policy!r} "
                "(expected 'fifo' or 'fair')"
            )
        for tenant, quota in self.tenant_quotas.items():
            if not isinstance(tenant, str) or not tenant:
                raise ConfigError("tenant_quotas keys must be non-empty strings")
            if quota <= 0:
                raise ConfigError(
                    f"tenant quota for {tenant!r} must be positive, got {quota!r}"
                )


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the observability layer (``repro.obs``).

    Everything here is a *pure reader* of existing deterministic state:
    the audit log, the virtual-clock sampler, and the exporters never
    emit trace events, advance the clock, consume randomness, or alter a
    caching decision, so every preset's JSONL trace is byte-identical
    with obs on or off (pinned by ``tests/integration/test_trace_identity``).
    """

    # Master kill switch.  Off by default: the hot paths then carry only
    # a ``None`` check per decision.  The sampling interval and the series
    # cap are constants of ``repro.obs.hub``.
    enabled: bool = False


#: The Fig. 11 ablation ladder of :class:`BlazeConfig`, lowest rung first.
RUNGS = ("autocache", "costaware", "full")


@dataclass(frozen=True)
class BlazeConfig:
    """Tunables of the Blaze unified decision layer (paper section 5).

    Engine kill switches at a glance (each is documented in detail at its
    field below):

    - ``obs.enabled`` — decision audit log + virtual-clock sampler (pure
      readers; traces byte-identical either way, see :class:`ObsConfig`);
    - ``sharded_engine`` — fan task execution out across shard workers
      (``repro.shard``) while the coordinator replays the engine
      sequentially; traces byte-identical either way (docs/scaling.md).

    The decision layer's ablations are one ordered setting, ``rung``
    (Fig. 11: ``"autocache" < "costaware" < "full"``), plus two switches
    of the full rung: ``ilp_enabled`` (the ILP-off ablation) and
    ``disk_enabled`` (Fig. 12's memory-only Blaze).

    The scenario layers have no switch here: the argument passed to the
    context arms each one — a ``fault_schedule`` the fault injector, a
    ``scale_schedule`` the remote tier and the elastic fleet, a
    ``tracer`` the trace, a ``service_config`` the job-service knobs
    (docs/faults.md, docs/elasticity.md).  Neither does the profiling
    phase: a manager built with a ``LineageProfile`` starts from it, one
    built without learns the lineage on the run.
    """

    # Dependency-extraction phase (section 5.1 / 7.5).  Whether it runs is
    # the system's choice (``SystemSpec.needs_profile``).
    profiling_timeout_seconds: float = 10.0
    profiling_sample_fraction: float = 0.01

    # ILP (section 5.5): optimize partitions of the current job plus this
    # many upcoming jobs; the paper uses the current and the next job.
    # The solver is branch-and-bound with the density-greedy answer as its
    # fallback when the node budget runs out (``repro.core.ilp``).
    ilp_horizon_jobs: int = 2

    # The Fig. 11 ablation ladder, one of ``RUNGS``; each rung adds one
    # component to the rung below.  Every rung caches automatically (5.6).
    #   "autocache" = LRU victims, always spilled to disk
    #   "costaware" = victims ordered by potential disk cost (section 7.3)
    #   "full"      = unified admission, per-victim disk-or-recompute
    #                 (sections 4.1, 4.2) and the ILP (section 5.5)
    rung: str = "full"
    # False turns the ILP off on the full rung (lower rungs never run it).
    ilp_enabled: bool = True
    # False models the Fig. 12 memory-only Blaze variant: victims are always
    # discarded and nothing is spilled.
    disk_enabled: bool = True

    # Deterministic fault injection (the ``repro.faults`` subsystem) runs
    # whenever a FaultSchedule is passed to the context.  This knob bounds
    # the driver's task-reattempt loop (Spark's spark.task.maxFailures
    # analogue).
    fault_max_task_retries: int = 4

    # Sharded simulation engine (the ``repro.shard`` package).  Executors
    # are split into ``num_shards`` contiguous groups; shard workers
    # speculatively compute partition data one stage ahead (supersteps:
    # bulk task dispatch, barrier exchange of shuffle buckets + residency
    # deltas), while the coordinator keeps the authoritative VirtualClock,
    # cache decisions, metrics, and trace — so JSONL traces stay
    # byte-identical to the single-process engine.  ``shard_transport``
    # picks the in-process zero-copy transport ("local", the default and
    # the trace-identity reference) or spawned worker processes
    # ("process"), where the parallelism actually pays.
    sharded_engine: bool = False
    num_shards: int = 2
    shard_transport: str = "local"

    # Observability layer (decision audit log, occupancy sampler,
    # Prometheus/dashboard exporters).  See :class:`ObsConfig`.
    obs: ObsConfig = field(default_factory=ObsConfig)

    # Tunables of elastic fleets + the cluster-wide remote-memory tier
    # (the ``repro.elastic`` package), read when a ScaleSchedule is
    # passed.  See :class:`ElasticConfig`.
    elastic: ElasticConfig = field(default_factory=ElasticConfig)

    def __post_init__(self) -> None:
        if self.rung not in RUNGS:
            raise ConfigError(f"unknown rung: {self.rung!r} (expected one of {RUNGS})")
        if self.ilp_horizon_jobs < 1:
            raise ConfigError("ilp_horizon_jobs must be >= 1")
        if not 0 < self.profiling_sample_fraction <= 1:
            raise ConfigError("profiling_sample_fraction must be in (0, 1]")
        if self.fault_max_task_retries < 1:
            raise ConfigError("fault_max_task_retries must be >= 1")
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if self.shard_transport not in ("local", "process"):
            raise ConfigError(
                f"unknown shard_transport: {self.shard_transport!r} "
                "(expected 'local' or 'process')"
            )


def small_cluster() -> ClusterConfig:
    """A tiny cluster for unit tests (2 executors, modest memory)."""
    return ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=64 * MiB,
        disk=DiskConfig(capacity_bytes=10 * GiB),
    )


def paper_cluster() -> ClusterConfig:
    """The evaluation cluster used by the benchmark harness.

    Ten executors (one per simulated machine pair in the paper) with the
    paper's memory-to-working-set ratio.
    """
    return ClusterConfig(
        num_executors=10,
        slots_per_executor=4,
        memory_store_bytes=8.5 * GiB,
        disk=DiskConfig(capacity_bytes=100 * GiB),
    )
