"""Cross-application lineage dedup and shared cached blocks.

Structurally identical lineages submitted by different tenants map onto
the same global RDD ids, so one tenant's cached blocks serve another
tenant's jobs (traced as ``cache.shared_hit``).  Dedup is conservative:
any unfingerprintable construction (opaque closure captures) gets a
fresh, never-shared id.
"""

from __future__ import annotations

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import ClusterConfig, MiB, ServiceConfig
from repro.dataflow.operators import SizeModel
from repro.service import JobService
from repro.service.identity import OPAQUE, fn_token, value_token
from repro.tracing import InMemoryTracer


def _cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=2, slots_per_executor=2, memory_store_bytes=256 * MiB,
    )


def _service(dedup: bool = True, tracing: bool = False) -> JobService:
    return JobService(
        _cluster(),
        SparkCacheManager(StorageMode.MEM_ONLY, "lru"),
        tracer=InMemoryTracer() if tracing else None,
        service_config=ServiceConfig(dedup_enabled=dedup),
    )


def _cached_pipeline(client):
    data = client.parallelize(
        range(64), 4, size_model=SizeModel(bytes_per_element=0.25 * MiB)
    )
    squared = data.map(lambda x: x * x)
    squared.cache()
    return sum(client.run_job(squared, lambda _s, part: sum(part)))


# ----------------------------------------------------------------------
# Token-level units
# ----------------------------------------------------------------------
def test_value_tokens_fingerprint_scalars_only():
    assert value_token(3) == value_token(3)
    assert value_token(3) != value_token(4)
    assert value_token((1, "a")) == value_token((1, "a"))
    assert value_token(object()) is OPAQUE
    assert value_token([1, 2]) is OPAQUE, "mutable containers are opaque"


def test_fn_tokens_compare_bytecode_and_scalar_captures():
    def make(k):
        return lambda x: x + k

    assert fn_token(make(2)) == fn_token(make(2))
    assert fn_token(make(2)) != fn_token(make(3)), "captured scalar differs"
    arr = [1, 2, 3]
    assert fn_token(lambda x: x + arr[0]) is OPAQUE, "non-scalar capture"


# ----------------------------------------------------------------------
# Service-level dedup
# ----------------------------------------------------------------------
def test_identical_lineages_share_global_ids():
    with _service() as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        assert _cached_pipeline(a) == _cached_pipeline(b)
        assert [r.rdd_id for r in a.all_rdds()] == [r.rdd_id for r in b.all_rdds()]
        assert service.metrics.gids_deduped == a.num_rdds


def test_dedup_kill_switch_gives_identity_ids():
    with _service(dedup=False) as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        _cached_pipeline(a), _cached_pipeline(b)
        ids_a = [r.rdd_id for r in a.all_rdds()]
        ids_b = [r.rdd_id for r in b.all_rdds()]
        assert not set(ids_a) & set(ids_b)
        assert service.metrics.gids_deduped == 0


def test_single_application_ids_are_sequential_either_way():
    for dedup in (False, True):
        with _service(dedup=dedup) as service:
            client = service.session()
            _cached_pipeline(client)
            _cached_pipeline(client)  # loop-style duplicate lineage
            assert [r.rdd_id for r in client.all_rdds()] == list(
                range(client.num_rdds)
            )


def test_different_seeds_never_share_ids():
    with _service() as service:
        a = service.session(tenant="a", seed=1)
        b = service.session(tenant="b", seed=2)
        _cached_pipeline(a), _cached_pipeline(b)
        assert not {r.rdd_id for r in a.all_rdds()} & {r.rdd_id for r in b.all_rdds()}


def test_opaque_captures_never_dedup():
    payload = [1, 2, 3]  # non-scalar closure capture => opaque

    def app(client):
        data = client.parallelize(range(8), 2)
        mapped = data.map(lambda x: x + payload[0])
        return sum(client.run_job(mapped, lambda _s, p: sum(p)))

    with _service() as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        assert app(a) == app(b)
        # The parallelize may dedup; the opaque map must not.
        assert a.all_rdds()[-1].rdd_id != b.all_rdds()[-1].rdd_id


def test_shared_hits_count_cross_tenant_reads():
    with _service(tracing=True) as service:
        a = service.session(tenant="a")
        b = service.session(tenant="b")
        _cached_pipeline(a)  # materializes + caches under tenant a
        before = service.metrics.shared_hits
        assert before == 0
        _cached_pipeline(b)  # same gids -> reads a's cached blocks
        m = service.metrics
        assert m.shared_hits > 0
        assert m.shared_hit_bytes > 0
        shared_events = [
            e for e in service.tracer.events if e.name == "cache.shared_hit"
        ]
        assert shared_events, "cross-tenant hits must be traced"
        assert all(e.args["owner"] == "a" and e.args["reader"] == "b"
                   for e in shared_events)
        # Re-reads by the owner are plain hits, not shared hits.
        _cached_pipeline(a)
        assert service.metrics.shared_hits == m.shared_hits
