"""Shared test fixtures: small clusters, contexts, and helpers."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import ClusterConfig, DiskConfig, GiB, MiB
from repro.dataflow.context import BlazeContext
from repro.dataflow.fusion import FusionPlanner


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
