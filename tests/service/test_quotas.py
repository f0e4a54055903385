"""Per-tenant memory quotas and fairness-aware victim selection.

The starvation regression at the heart of this file: a tenant that has
exhausted its quota must displace *its own* blocks (or fall back to
disk), never another within-quota tenant's protected blocks.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from conftest import quota_service, reference_select

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.cluster.blocks import Block
from repro.config import BlazeConfig, ClusterConfig, MiB, ObsConfig, ServiceConfig
from repro.core.udl import BlazeCacheManager
from repro.dataflow.operators import OpCost, SizeModel
from repro.metrics.collector import TaskMetrics
from repro.service import JobService
from repro.service.tenancy import take_tiered
from repro.systems import make_system
from repro.tracing import InMemoryTracer, to_jsonl


def _cluster(memory_mb: int = 64) -> ClusterConfig:
    return ClusterConfig(
        num_executors=1, slots_per_executor=2,
        memory_store_bytes=memory_mb * MiB,
    )


def _quota_service(quotas: dict[str, float], mode=StorageMode.MEM_ONLY) -> JobService:
    return JobService(
        _cluster(),
        SparkCacheManager(mode, "lru"),
        tracer=InMemoryTracer(),
        service_config=ServiceConfig(tenant_quotas=quotas, dedup_enabled=False),
    )


def _cache_dataset(client, num_elements: int, parts: int, tag: int):
    """Cache ``num_elements`` MiB across ``parts`` partitions."""
    data = client.parallelize(
        range(num_elements), parts,
        size_model=SizeModel(bytes_per_element=1.0 * MiB),
        name=f"d{tag}",
    )
    marked = data.map(lambda x, t=tag: (t, x))
    marked.cache()
    client.run_job(marked, lambda _s, part: len(part))
    return marked


def _memory_blocks(service):
    return [
        block
        for executor in service.cluster.executors
        for block in executor.bm.memory.blocks()
    ]


def test_tenant_at_quota_cannot_evict_protected_blocks():
    quota = {"a": 32 * MiB, "b": 32 * MiB}
    with _quota_service(quota) as service:
        b = service.session(tenant="b")
        cached_b = _cache_dataset(b, 24, 3, tag=0)  # 24 MiB, within quota
        b_blocks = {blk.block_id for blk in _memory_blocks(service)}
        assert len(b_blocks) == 3

        a = service.session(tenant="a")
        _cache_dataset(a, 48, 6, tag=1)  # wants 48 MiB against a 32 MiB quota

        tenancy = service.cluster.tenancy
        used_a = tenancy.memory_used_by(service.cluster, "a")
        used_b = tenancy.memory_used_by(service.cluster, "b")
        # The starvation regression: b's protected blocks all survive.
        surviving = {blk.block_id for blk in _memory_blocks(service)}
        assert b_blocks <= surviving
        assert used_b == 24 * MiB
        # a is capped at its quota, displacing only its own blocks.
        assert used_a <= 32 * MiB
        # And b's cached data still serves memory hits.
        def mem_hits():
            return sum(1 for e in service.tracer.events if e.name == "cache.hit_mem")

        before = mem_hits()
        b.run_job(cached_b, lambda _s, part: len(part))
        assert mem_hits() == before + 3, "all three of b's partitions hit"


def test_over_quota_tenants_blocks_are_preferred_victims():
    # b fills well past a's protected share; with no quota for b at first
    # insert time, then a arrives: a's inserts should evict b's blocks
    # (b is over its quota) before touching a's own.
    quota = {"a": 48 * MiB, "b": 16 * MiB}
    with _quota_service(quota) as service:
        b = service.session(tenant="b")
        # b wants 32 MiB against a 16 MiB quota: enforcement caps it.
        _cache_dataset(b, 32, 4, tag=0)
        tenancy = service.cluster.tenancy
        assert tenancy.memory_used_by(service.cluster, "b") <= 16 * MiB

        a = service.session(tenant="a")
        _cache_dataset(a, 48, 6, tag=1)
        used_a = tenancy.memory_used_by(service.cluster, "a")
        assert used_a == 48 * MiB, "a gets its full quota"


def test_quota_unmet_falls_back_to_disk_when_available():
    quota = {"a": 8 * MiB}
    with _quota_service(quota, mode=StorageMode.MEM_AND_DISK) as service:
        a = service.session(tenant="a")
        _cache_dataset(a, 24, 3, tag=0)  # 8 MiB partitions vs an 8 MiB quota
        tenancy = service.cluster.tenancy
        assert tenancy.memory_used_by(service.cluster, "a") <= 8 * MiB
        disk_blocks = [
            blk
            for executor in service.cluster.executors
            for blk in executor.bm.disk.blocks()
        ]
        assert disk_blocks, "over-quota inserts spill to disk"


def test_unquoted_tenants_are_unlimited():
    quota = {"a": 8 * MiB}
    with _quota_service(quota) as service:
        c = service.session(tenant="c")  # absent from the quota map
        _cache_dataset(c, 48, 6, tag=0)
        tenancy = service.cluster.tenancy
        assert tenancy.memory_used_by(service.cluster, "c") == 48 * MiB


def test_empty_quota_map_is_fully_inert():
    with JobService(
        _cluster(), SparkCacheManager(StorageMode.MEM_ONLY, "lru"),
        tracer=InMemoryTracer(),
        service_config=ServiceConfig(dedup_enabled=False),
    ) as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        _cache_dataset(a, 40, 5, tag=0)
        _cache_dataset(b, 40, 5, tag=1)  # LRU may evict a's blocks freely
        tenancy = service.cluster.tenancy
        assert not tenancy.quotas_active
        used = tenancy.memory_used_by(service.cluster, "b")
        assert used > 32 * MiB, "no quota caps apply"


# The baseline's tiered selection, checked online on the 3-tenant quota
# service (``conftest.quota_service``): every selection must equal the
# reference filter + full sort by ``(tier, victim_priority, seq,
# block_id)`` — the executor's own policy order behind the fairness tier —
# over the inserting executor's memory store, victims must come from all
# three fairness tiers, and the audit log must say which.
@pytest.mark.parametrize("system", ["spark_mem_disk", "spark_lrc", "spark_lfu"])
def test_spark_quota_selections_match_reference(system):
    checks: Counter = Counter()
    tiers: set = set()
    inserting: list = []  # (manager, executor) of the running handle_cache
    handle_cache = SparkCacheManager.handle_cache

    def tracked_handle_cache(self, executor, *args, **kwargs):
        inserting.append((self, executor))
        try:
            return handle_cache(self, executor, *args, **kwargs)
        finally:
            inserting.pop()

    def checked_take_tiered(blocks, needed, incoming_rdd_id, tier_of, tenant, own_need):
        victims, scanned = take_tiered(
            blocks, needed, incoming_rdd_id, tier_of, tenant, own_need
        )
        manager, executor = inserting[-1]
        policy, now = manager.policy_for(executor), manager.cluster.clock.now
        want = reference_select(
            executor.bm.memory.blocks(), lambda b: policy.victim_priority(b, now),
            needed, incoming_rdd_id, tier_of, tenant, own_need,
        )
        ids = None if victims is None else [v.block_id for v in victims]
        assert ids == (None if want is None else [v.block_id for v in want])
        checks["selections"] += 1
        tiers.update(tier_of(v) for v in victims or ())
        return victims, scanned

    with (
        mock.patch.object(SparkCacheManager, "handle_cache", tracked_handle_cache),
        mock.patch("repro.caching.manager.take_tiered", checked_take_tiered),
        quota_service(system, InMemoryTracer()) as service,
    ):
        handles = service.run()
        for handle in handles:
            handle.result()
        audited = [
            victim.tier
            for entry in handles[0].report().audit_entries
            for victim in entry.victims
        ]
    assert checks["selections"] > 0
    assert tiers == {0, 1, 2}, "every fairness tier must be evicted from"
    assert audited and set(audited) <= {0, 1, 2}, "audited victims carry their tier"


def test_spark_quota_victims_follow_each_policy():
    """Under quotas LRU, LRC and LFU still pick different victims."""
    traces = set()
    for system in ("spark_mem_disk", "spark_lrc", "spark_lfu"):
        tracer = InMemoryTracer()
        with quota_service(system, tracer) as service:
            for handle in service.run():
                handle.result()
        traces.add(to_jsonl(tracer.events))
    assert len(traces) == 3


# ----------------------------------------------------------------------
# The same battery on a Blaze service.  Blaze caches automatically, so
# the datasets carry no annotation and every tenant repeats its job: job 0
# stores nothing, reuse is learned on the run, and from job 1 on every
# admission runs under the quotas.  The audit log (obs on) shows which
# fairness tier each victim came from.
# ----------------------------------------------------------------------
def _blaze_service(quotas: dict[str, float]) -> JobService:
    bcfg = BlazeConfig(obs=ObsConfig(enabled=True))
    return JobService(
        _cluster(),
        BlazeCacheManager(config=bcfg),
        tracer=InMemoryTracer(),
        blaze_config=bcfg,
        service_config=ServiceConfig(tenant_quotas=quotas, dedup_enabled=False),
    )


def _dataset(client, num_elements: int, parts: int, tag: int, cost: float = 1e-3):
    """``num_elements`` MiB across ``parts`` partitions, ``cost`` s per element."""
    data = client.parallelize(
        range(num_elements), parts,
        size_model=SizeModel(bytes_per_element=1.0 * MiB),
        op_cost=OpCost(per_element_out=cost),
        name=f"d{tag}",
    )
    return data.map(lambda x, t=tag: (t, x))


def _run(client, rdd) -> None:
    client.run_job(rdd, lambda _s, part: len(part))


def _decisions(service, tenant: str):
    """The tenant's audited admission decisions, in order."""
    return [
        entry
        for entry in service.session().report().audit_entries
        if entry.kind != "ilp" and entry.tenant == tenant
    ]


def test_blaze_tenant_at_quota_displaces_only_its_own_blocks():
    with _blaze_service({"a": 32 * MiB, "b": 32 * MiB}) as service:
        b = service.session(tenant="b")
        a = service.session(tenant="a")
        data_b = _dataset(b, 24, 3, tag=0)
        data_a = _dataset(a, 48, 6, tag=1)  # wants 48 MiB against 32 MiB
        _run(b, data_b)
        _run(a, data_a)
        _run(b, data_b)
        b_blocks = {blk.block_id for blk in _memory_blocks(service)}
        assert b_blocks, "b's reuse is learned and cached within its quota"
        for _ in range(2):  # interleaved, so b's blocks keep future uses
            _run(a, data_a)
            _run(b, data_b)

        tenancy = service.cluster.tenancy
        assert 0 < tenancy.memory_used_by(service.cluster, "a") <= 32 * MiB
        # a ends over quota on every contested insert, so b's within-quota
        # blocks are protected: never a candidate, all still resident.
        assert b_blocks <= {blk.block_id for blk in _memory_blocks(service)}
        decisions = _decisions(service, "a")
        assert any(entry.victims for entry in decisions), "a displaced blocks"
        assert any(entry.reason == "no_victims" for entry in decisions)
        for entry in decisions:
            assert all(cand.tier == 1 for cand in entry.candidates)
            assert not {(c.rdd_id, c.split) for c in entry.candidates} & b_blocks


def test_blaze_protected_blocks_are_no_victims_of_an_over_quota_insert():
    """The one case where only the protection keeps b's blocks: a's own
    blocks cover its quota debt but not the space the insert needs.

    Driven through the admission function on the +AutoCache variant (LRU
    order, no cost lookups — the tiering does not depend on the order
    key), so the incoming block can be hand-made.
    """
    manager = make_system("autocache").build()
    with JobService(
        _cluster(), manager, tracer=InMemoryTracer(), blaze_config=manager.config,
        service_config=ServiceConfig(
            tenant_quotas={"a": 16 * MiB, "b": 64 * MiB}, dedup_enabled=False
        ),
    ) as service:
        # Annotated first jobs place into free space: b 56 MiB, a 8 MiB.
        _cache_dataset(service.session(tenant="b"), 56, 7, tag=0)
        _cache_dataset(service.session(tenant="a"), 8, 2, tag=1)
        executor = service.cluster.executors[0]
        resident = {blk.block_id: blk.tenant for blk in _memory_blocks(service)}
        assert sorted(resident.values()) == ["a"] * 2 + ["b"] * 7

        def insert(block_id):
            tenancy = service.cluster.tenancy
            tenancy.current_tenant = "a"
            block = Block(block_id=block_id, data=[0], size_bytes=12 * MiB, tenant="a")
            manager._admit(executor, block, 1, TaskMetrics(), from_disk=False)
            tenancy.current_tenant = "default"
            return {blk.block_id for blk in _memory_blocks(service)}

        # 8 + 12 > 16: a ends over quota, so b is protected; a's own 8 MiB
        # would pay the 4 MiB debt but not the 12 MiB needed -> no victims.
        assert insert((999, 0)) == set(resident)
        assert (999, 0) in executor.bm.disk
        # With room in a's quota the same insert may take b's LRU block,
        # after a's own.
        service.cluster.tenancy.quotas["a"] = 32 * MiB
        after = insert((999, 1))
        assert (999, 1) in after
        evicted = set(resident) - after
        assert sorted(resident[bid] for bid in evicted) == ["a", "a", "b"]


def test_blaze_over_quota_tenants_blocks_are_taken_first():
    with _blaze_service({"a": 48 * MiB, "b": 32 * MiB}) as service:
        b = service.session(tenant="b")
        a = service.session(tenant="a")
        data_b = _dataset(b, 32, 4, tag=0)
        data_a = _dataset(a, 48, 6, tag=1)
        for _ in range(2):
            _run(b, data_b)
        tenancy = service.cluster.tenancy
        assert tenancy.memory_used_by(service.cluster, "b") == 32 * MiB
        b_rdds = {blk.rdd_id for blk in _memory_blocks(service)}
        tenancy.quotas["b"] = 16 * MiB  # the operator halves b's share
        for _ in range(2):
            _run(a, data_a)

        assert tenancy.memory_used_by(service.cluster, "a") == 48 * MiB
        assert tenancy.memory_used_by(service.cluster, "b") <= 16 * MiB
        victims = [v for entry in _decisions(service, "a") for v in entry.victims]
        tiers = [v.tier for v in victims]
        # b's blocks go while b is over quota; only then a's own.
        assert tiers == sorted(tiers) and {0, 1} <= set(tiers)
        assert all((v.rdd_id in b_rdds) == (v.tier == 0) for v in victims)


def test_blaze_quota_unmet_falls_back_to_disk():
    with _blaze_service({"a": 8 * MiB}) as service:
        a = service.session(tenant="a")
        # 8 MiB partitions vs an 8 MiB quota, dear enough to recompute
        # that a partition denied memory is worth a spill.
        data = _dataset(a, 24, 3, tag=0, cost=5.0)
        for _ in range(2):
            _run(a, data)
        tenancy = service.cluster.tenancy
        assert 0 < tenancy.memory_used_by(service.cluster, "a") <= 8 * MiB
        disk_blocks = [
            blk
            for executor in service.cluster.executors
            for blk in executor.bm.disk.blocks()
        ]
        assert disk_blocks, "over-quota inserts fall back to disk"
        assert all(blk.tenant == "a" for blk in disk_blocks)
