"""Property tests: fused execution is observationally invisible.

Randomized narrow-op programs (maps, filters, flat_maps, with random cache
annotations and random branch points creating extra consumers) run twice —
under the ``unfused`` fixture (no chain ever fuses: the operator-by-operator
runtime fallback) and plainly — over the same seed.  The fused run must
be indistinguishable from the unfused oracle in everything the engine
exposes: per-partition element lists (order included), the full
:class:`TaskMetrics` ledger, eviction counts, and the byte-exact JSONL
trace.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.caching.manager import SparkCacheManager
from repro.caching.storage_level import StorageMode
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost, SizeModel
from repro.systems.presets import make_system
from repro.tracing import InMemoryTracer, to_jsonl

#: one random program step: op kind plus its integer parameter
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("map"), st.integers(min_value=-3, max_value=3)),
        st.tuples(st.just("filter"), st.integers(min_value=2, max_value=5)),
        st.tuples(st.just("flat_map"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("cache"), st.just(0)),
        st.tuples(st.just("branch"), st.just(0)),
    ),
    min_size=1,
    max_size=10,
)
_data = st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=40)
_widths = st.integers(min_value=1, max_value=5)
_seeds = st.integers(min_value=0, max_value=2**16)
_systems = st.sampled_from(["spark", "blaze_no_profile", "costaware"])


def _manager(system: str, bcfg: BlazeConfig):
    if system == "spark":
        return SparkCacheManager(StorageMode.MEM_AND_DISK, "lru")
    return make_system(system).build(profile=None, blaze_config=bcfg)


def _run_program(system, steps, data, width, seed):
    """Build the random DAG, run its actions twice, snapshot observables."""
    bcfg = BlazeConfig()
    tracer = InMemoryTracer()
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=2,
            slots_per_executor=2,
            memory_store_bytes=2 * MiB,  # small enough to evict sometimes
            disk=DiskConfig(capacity_bytes=1 * GiB),
        ),
        _manager(system, bcfg),
        seed=seed,
        tracer=tracer,
        blaze_config=bcfg,
    )
    try:
        rdd = ctx.parallelize(
            data,
            width,
            op_cost=OpCost(per_element_out=1e-3),
            size_model=SizeModel(bytes_per_element=0.02 * MiB),
        )
        branches = []
        for kind, arg in steps:
            if kind == "map":
                rdd = rdd.map(lambda x, c=arg: x + c)
            elif kind == "filter":
                rdd = rdd.filter(lambda x, m=arg: x % m != 0)
            elif kind == "flat_map":
                rdd = rdd.flat_map(lambda x, r=arg: [x] * r)
            elif kind == "cache":
                rdd.cache()
            else:  # branch: give the current node a second consumer
                branches.append(rdd.map(lambda x: -x))

        partitions = []
        error = None
        try:
            for _ in range(2):  # second pass exercises cached/recovered reads
                partitions.append(ctx.run_job(rdd, lambda _s, part: list(part)))
                for b in branches:
                    partitions.append(ctx.run_job(b, lambda _s, part: list(part)))
        except Exception as exc:  # engine errors (e.g. zero-size ILP items)
            error = f"{type(exc).__name__}: {exc}"  # must match across modes
        counters = ctx.report().decision_counters
        return {
            "partitions": partitions,
            "error": error,
            "metrics": ctx.metrics.total,
            "evictions": ctx.metrics.total_evictions,
            "trace": to_jsonl(tracer.events),
            "pipelined": counters["partitions_pipelined"],
        }
    finally:
        ctx.stop()


@settings(max_examples=40, deadline=None)
@given(system=_systems, steps=_steps, data=_data, width=_widths, seed=_seeds)
def test_fused_matches_unfused_oracle(unfused, system, steps, data, width, seed):
    with unfused():
        off = _run_program(system, steps, data, width, seed)
    on = _run_program(system, steps, data, width, seed)
    assert on["partitions"] == off["partitions"]
    assert on["error"] == off["error"]
    assert on["metrics"] == off["metrics"]
    assert on["evictions"] == off["evictions"]
    assert on["trace"] == off["trace"]
    assert off["pipelined"] == 0  # the fixture really forces the fallback


def test_fusion_actually_fires():
    """Guard against the property passing vacuously: a plain narrow chain
    on the fused engine must pipeline at least one partition."""
    steps = [("map", 1), ("map", 2), ("filter", 3)]
    on = _run_program("spark", steps, list(range(30)), 3, 0)
    assert on["pipelined"] > 0
