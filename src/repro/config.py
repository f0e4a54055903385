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
    # Remote cache reads are allowed (Spark semantics) but tasks are
    # scheduled for locality, so they are rare.
    allow_remote_cache_reads: bool = True
    # Opt-in structured tracing: when True (and no explicit tracer is
    # passed to BlazeContext) the context records an in-memory trace of
    # spans and cache events on the virtual clock.
    tracing_enabled: bool = False

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

    enabled: bool = True
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

    ``enabled`` is the master kill switch and defaults to off: with it
    down, a :class:`~repro.elastic.ScaleSchedule` handed to a context is
    inert, the remote-memory tier is never built, and every elastic
    counter stays exactly zero — runs are byte-identical to the
    fixed-fleet engine.  With it up, scale events fire at stage
    boundaries on the virtual clock (scale-up activates executors up to
    ``max_executors``, scale-down drains and deactivates down to
    ``min_executors``, preemption reuses the fault layer's crash wipe)
    and the remote tier, if its own ``enabled`` is up, joins the
    eviction ladder between memory and disk.
    """

    enabled: bool = False
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
    knobs here only matter for :class:`~repro.service.JobService`; the
    legacy single-tenant ``BlazeContext`` path ignores them.
    """

    # Arrival process for submitted application streams: "poisson" draws
    # exponential inter-arrival gaps at ``arrival_rate_per_sec``;
    # "diurnal" thins a Poisson stream against a sinusoidal rate profile
    # with the given period and trough-to-peak ratio.
    arrival_process: str = "poisson"
    arrival_seed: int = 0
    arrival_rate_per_sec: float = 1.0
    diurnal_period_seconds: float = 60.0
    diurnal_trough_ratio: float = 0.2

    # Inter-job scheduling policy: "fifo" grants pending job requests in
    # submission order; "fair" grants the tenant with the least consumed
    # virtual service time (deterministic tie-breaks on tenant name and
    # submission order).
    inter_job_policy: str = "fifo"

    # Per-tenant memory-store quotas in bytes (aggregate across the
    # executor fleet).  Tenants absent from the mapping are unlimited.
    # An empty mapping disables quota enforcement entirely, which keeps
    # the single-tenant compatibility path byte-identical to the legacy
    # engine.
    tenant_quotas: Mapping[str, float] = field(default_factory=dict)

    # Structural cross-application lineage dedup: identical lineage
    # prefixes submitted by different tenants map to the same global RDD
    # ids, so their cached blocks are shared (hits on another tenant's
    # block trace as ``cache.shared_hit``).  Kill switch for the service
    # path; the BlazeContext shim always runs with identity ids.
    dedup_enabled: bool = True

    # Emit ``service.*`` trace instants (submission, grant, completion).
    # Off by default so single-tenant traces stay byte-identical.
    trace_service_events: bool = False

    def __post_init__(self) -> None:
        if self.arrival_process not in ("poisson", "diurnal"):
            raise ConfigError(
                f"unknown arrival_process: {self.arrival_process!r} "
                "(expected 'poisson' or 'diurnal')"
            )
        if self.arrival_rate_per_sec <= 0:
            raise ConfigError("arrival_rate_per_sec must be positive")
        if self.diurnal_period_seconds <= 0:
            raise ConfigError("diurnal_period_seconds must be positive")
        if not 0 < self.diurnal_trough_ratio <= 1:
            raise ConfigError("diurnal_trough_ratio must be in (0, 1]")
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
    # a ``None`` check per decision.
    enabled: bool = False

    # The decision audit log is a ring buffer: only the most recent
    # ``audit_ring_size`` admission/eviction/ILP entries are retained.
    audit_ring_size: int = 4096

    # Fixed virtual-time interval between occupancy samples, and a cap on
    # the number of samples retained (long service runs with sparse
    # arrivals would otherwise grow the series without bound).
    sample_interval_seconds: float = 1.0
    max_samples: int = 50_000

    def __post_init__(self) -> None:
        if self.audit_ring_size <= 0:
            raise ConfigError("audit_ring_size must be positive")
        if self.sample_interval_seconds <= 0:
            raise ConfigError("sample_interval_seconds must be positive")
        if self.max_samples <= 0:
            raise ConfigError("max_samples must be positive")


@dataclass(frozen=True)
class BlazeConfig:
    """Tunables of the Blaze unified decision layer (paper section 5).

    Engine kill switches at a glance (each is documented in detail at its
    field below):

    - ``columnar_backend`` — columnar partition storage + vectorized
      fused kernels (traces byte-identical either way; see
      ``repro.storage`` and docs/performance.md);
    - ``fault_injection`` — deterministic fault injection (off by
      default; a FaultSchedule is inert without it);
    - ``service.dedup_enabled`` — cross-application lineage dedup on the
      :class:`~repro.service.JobService` path (see :class:`ServiceConfig`);
    - ``obs.enabled`` — decision audit log + virtual-clock sampler (pure
      readers; traces byte-identical either way, see :class:`ObsConfig`);
    - ``sharded_engine`` — fan task execution out across shard workers
      (``repro.shard``) while the coordinator replays the engine
      sequentially; traces byte-identical either way (docs/scaling.md);
    - ``elastic.enabled`` — elastic fleets + the remote-memory tier
      (``repro.elastic``; off by default, a ScaleSchedule is inert
      without it; see :class:`ElasticConfig` and docs/elasticity.md).
    """

    # Dependency-extraction phase (section 5.1 / 7.5).
    profiling_enabled: bool = True
    profiling_timeout_seconds: float = 10.0
    profiling_sample_fraction: float = 0.01

    # ILP (section 5.5): optimize partitions of the current job plus this
    # many upcoming jobs; the paper uses the current and the next job.
    ilp_horizon_jobs: int = 2
    ilp_backend: str = "exact"  # "exact" (branch and bound) or "greedy"
    # Re-solve with updated recomputation costs until the memory set is
    # stable, at most this many rounds (cost_r depends on residency).
    ilp_refinement_rounds: int = 3

    # Whether disk capacity enters the ILP as a second constraint.
    constrain_disk: bool = False

    # Automatic caching (section 5.6).
    autocache_enabled: bool = True
    # Unified admission / cost-aware eviction (sections 4.1, 4.2).  The
    # evaluation's ablations toggle these:
    #   +AutoCache  = cost_aware/recompute/ilp/admission all off
    #   +CostAware  = cost_aware on, recompute/ilp/admission off
    #   Blaze       = everything on
    cost_aware_enabled: bool = True
    recompute_option_enabled: bool = True
    ilp_enabled: bool = True
    admission_enabled: bool = True
    # False models the Fig. 12 memory-only Blaze variant: victims are always
    # discarded and nothing is spilled.
    disk_enabled: bool = True

    # Columnar data plane (the ``repro.storage`` package).  Partitions
    # whose records are type-analyzable (numeric scalars, fixed tuples of
    # scalars, int-keyed pairs) are stored as chunked numpy record batches
    # at cache time, element-wise fused chains over them execute as
    # batch-at-a-time vectorized kernels (with per-split fallback to the
    # iterator pipeline), and spill/load becomes a codec transition
    # between ``columnar_codec`` (memory tier) and ``columnar_spill_codec``
    # (disk tier).  Execution is observationally identical either way —
    # every preset's JSONL trace is byte-identical columnar vs list — so
    # the flag is a kill switch and the baseline for the columnar cells of
    # `scripts/bench.py`.
    columnar_backend: bool = True
    columnar_chunk_rows: int = 4096
    columnar_codec: str = "none"
    columnar_spill_codec: str = "zlib"

    # Deterministic fault injection (the ``repro.faults`` subsystem).  The
    # kill switch defaults to off: a FaultSchedule handed to a context is
    # inert unless ``fault_injection`` is raised.  The retry knobs bound
    # the driver's task-reattempt loop (Spark's spark.task.maxFailures
    # analogue) with a linear virtual-time backoff per attempt.
    fault_injection: bool = False
    fault_max_task_retries: int = 4
    fault_retry_backoff_seconds: float = 0.25

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

    # Multi-tenant job-service knobs (arrival stream, inter-job policy,
    # tenant quotas, cross-application dedup).  See :class:`ServiceConfig`.
    service: ServiceConfig = field(default_factory=ServiceConfig)

    # Observability layer (decision audit log, occupancy sampler,
    # Prometheus/dashboard exporters).  See :class:`ObsConfig`.
    obs: ObsConfig = field(default_factory=ObsConfig)

    # Elastic fleets + the cluster-wide remote-memory tier (the
    # ``repro.elastic`` package).  See :class:`ElasticConfig`.
    elastic: ElasticConfig = field(default_factory=ElasticConfig)

    def __post_init__(self) -> None:
        if self.ilp_horizon_jobs < 1:
            raise ConfigError("ilp_horizon_jobs must be >= 1")
        if self.ilp_backend not in ("exact", "greedy"):
            raise ConfigError(f"unknown ilp_backend: {self.ilp_backend!r}")
        if not 0 < self.profiling_sample_fraction <= 1:
            raise ConfigError("profiling_sample_fraction must be in (0, 1]")
        if self.ilp_refinement_rounds < 1:
            raise ConfigError("ilp_refinement_rounds must be >= 1")
        if self.columnar_chunk_rows < 1:
            raise ConfigError("columnar_chunk_rows must be >= 1")
        # Late import: repro.storage depends only on numpy/stdlib, but
        # config must stay importable before the storage registry is.
        from .storage.codecs import available_codecs, is_known_codec

        for codec_field in ("columnar_codec", "columnar_spill_codec"):
            name = getattr(self, codec_field)
            if not is_known_codec(name):
                raise ConfigError(
                    f"{codec_field}={name!r} is not a registered codec "
                    f"(available: {available_codecs()})"
                )
        if self.fault_max_task_retries < 1:
            raise ConfigError("fault_max_task_retries must be >= 1")
        if self.fault_retry_backoff_seconds < 0:
            raise ConfigError("fault_retry_backoff_seconds must be >= 0")
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
