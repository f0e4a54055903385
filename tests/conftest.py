"""Shared test fixtures: small clusters, contexts, and helpers."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    GiB,
    MiB,
    ObsConfig,
    ServiceConfig,
)
from repro.core.profiler import run_dependency_extraction
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.dataflow.fusion import FusionPlanner
from repro.service import JobService
from repro.storage.backend import ColumnarBackend
from repro.systems.presets import make_system
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload


class AnnotatedBlazeCacheManager(BlazeCacheManager):
    """Blaze whose cache candidates are the user's ``.cache()`` annotations.

    Keeps a scenario exactly as constructed: no intermediate dataset
    becomes a candidate through its future references.
    """

    def is_cache_candidate(self, rdd) -> bool:
        return rdd.is_annotated_cached


def make_cluster_config(
    num_executors: int = 2,
    slots: int = 2,
    memory_mb: float = 64,
    disk_gb: float = 10,
) -> ClusterConfig:
    return ClusterConfig(
        num_executors=num_executors,
        slots_per_executor=slots,
        memory_store_bytes=memory_mb * MiB,
        disk=DiskConfig(capacity_bytes=disk_gb * GiB),
    )


def make_ctx(
    mode: StorageMode = StorageMode.MEM_AND_DISK,
    policy: str = "lru",
    seed: int = 0,
    **cluster_kwargs,
) -> BlazeContext:
    return BlazeContext(
        make_cluster_config(**cluster_kwargs),
        SparkCacheManager(mode, policy),
        seed=seed,
    )


@pytest.fixture
def ctx() -> BlazeContext:
    """A small MEM+DISK context with plenty of memory for plain dataflow."""
    return make_ctx(memory_mb=4096)


@pytest.fixture
def tight_ctx() -> BlazeContext:
    """A context whose memory store forces evictions quickly."""
    return make_ctx(memory_mb=8)


@pytest.fixture(scope="session")
def unfused():
    """``with unfused(): ...`` runs the engine with no narrow chain fused.

    Stubs ``FusionPlanner.plan_for`` to plan nothing, so every chain takes
    ``Driver._compute``'s operator-by-operator walk — the runtime fallback
    the fused plane is compared against.  Session-scoped (it holds no
    state) so Hypothesis tests may request it.
    """

    def patch():
        return mock.patch.object(FusionPlanner, "plan_for", lambda self, rdd: None)

    return patch


@pytest.fixture(scope="session")
def list_plane():
    """``with list_plane(): ...`` runs the engine with no columnar batch.

    Stubs ``ColumnarBackend.encode_for_cache`` to hand every partition
    back unchanged, so cached partitions stay Python lists, no kernel
    runs and no tier move transcodes — the list oracle the columnar plane
    is compared against.  Session-scoped (it holds no state) so
    Hypothesis tests may request it.
    """

    def patch():
        return mock.patch.object(
            ColumnarBackend, "encode_for_cache",
            lambda self, rdd, data, metrics=None: data,
        )

    return patch


def quota_service(system: str, tracer, seed: int = 3) -> JobService:
    """Three tenants' PageRanks submitted to one quota-capped fleet.

    Memory and quotas are sized so that executors hold several tenants'
    blocks at once and every fairness tier gets evicted from; ``run()``
    the returned service (obs on) to play the applications out.
    """
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    bcfg = BlazeConfig(obs=ObsConfig(enabled=True))
    profile = run_dependency_extraction(
        wl.profiling_run_fn(bcfg.profiling_sample_fraction), bcfg,
        seed=seed, tracer=tracer,
    )
    service = JobService(
        ClusterConfig(
            num_executors=2, slots_per_executor=2,
            # Blaze counts references over all three applications' streams,
            # so it holds (and spills) more of each; 32 MiB is where tier 2
            # still gets evicted from (48 MiB did, while each was scored alone)
            memory_store_bytes=32 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        make_system(system).build(profile=profile, blaze_config=bcfg),
        seed=seed, tracer=tracer, blaze_config=bcfg,
        service_config=ServiceConfig(
            tenant_quotas={"a": 40 * MiB, "b": 10 * MiB, "c": 80 * MiB},
            dedup_enabled=False, inter_job_policy="fair",
        ),
    )
    for i, tenant in enumerate("abc"):
        service.submit(
            lambda client: wl.run(client).final_value,
            tenant=tenant, arrival_time=0.01 * i, seed=seed + i,
        )
    return service


def reference_select(
    blocks, key_of, needed_bytes, incoming_rdd_id,
    tier_of=None, tenant=None, own_need=0.0,
):
    """Reference victim selection: filter, full sort, greedy accumulate.

    ``VictimIndex`` must return exactly this sequence.  With ``tier_of``
    (quota mode) the fairness tier leads the sort key, ``None``-tiered
    blocks are protected, and ``own_need`` bytes of ``tenant``'s own
    blocks must be freed besides ``needed_bytes`` overall.
    """
    if tier_of is None:
        def tier_of(_block):
            return 0
    eligible = [
        b for b in blocks
        if b.rdd_id != incoming_rdd_id and tier_of(b) is not None
    ]
    eligible.sort(
        key=lambda b: (tier_of(b), key_of(b), b.policy_data.get("seq", 0), b.block_id)
    )
    victims, freed, own_freed = [], 0.0, 0.0
    for candidate in eligible:
        if freed >= needed_bytes and own_freed >= own_need:
            break
        victims.append(candidate)
        freed += candidate.size_bytes
        if candidate.tenant == tenant:
            own_freed += candidate.size_bytes
    if freed < needed_bytes or own_freed < own_need:
        return None
    return victims
