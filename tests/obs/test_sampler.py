"""OccupancySampler unit behavior plus its end-to-end wiring.

Unit tests drive ``on_advance`` against a stub cluster to pin the
boundary semantics (fixed-interval stamps, multi-boundary jumps, the
``max_samples`` cap); the integration tests check the clock-listener
wiring on a real obs-enabled run.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ObsConfig
from repro.experiments.runner import run_experiment
from repro.obs import hub
from repro.obs.sampler import OccupancySampler
from repro.sim.clock import VirtualClock
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload


def _block(tenant, size):
    return SimpleNamespace(tenant=tenant, size_bytes=size)


def _stub_cluster(mem_blocks=(), disk_blocks=(), hits=0, misses=0, shared=0):
    store = lambda blocks: SimpleNamespace(blocks=lambda: list(blocks))
    executor = SimpleNamespace(
        bm=SimpleNamespace(memory=store(mem_blocks), disk=store(disk_blocks))
    )
    return SimpleNamespace(
        executors=[executor],
        tenancy=None,
        metrics=SimpleNamespace(
            cache_hits=hits, cache_misses=misses, shared_hits=shared
        ),
    )


def test_samples_stamp_fixed_interval_boundaries():
    sampler = OccupancySampler(_stub_cluster(), interval_seconds=1.0, max_samples=100)
    sampler.on_advance(0.4)       # before the first boundary: nothing
    assert sampler.samples == ()
    sampler.on_advance(2.5)       # one jump across two boundaries
    assert [s.ts for s in sampler.samples] == [1.0, 2.0]
    sampler.on_advance(2.9)       # still inside the same interval
    assert len(sampler.samples) == 2
    sampler.on_advance(3.0)       # boundaries are inclusive
    assert [s.ts for s in sampler.samples] == [1.0, 2.0, 3.0]


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        OccupancySampler(_stub_cluster(), interval_seconds=0.0, max_samples=100)


def test_max_samples_caps_the_series_and_flags_truncation():
    sampler = OccupancySampler(
        _stub_cluster(), interval_seconds=1.0, max_samples=3
    )
    sampler.on_advance(10.0)
    assert [s.ts for s in sampler.samples] == [1.0, 2.0, 3.0]
    assert sampler.truncated is True
    sampler.on_advance(20.0)      # the cap holds on later advances too
    assert len(sampler.samples) == 3


def test_snapshot_groups_occupancy_by_tenant():
    cluster = _stub_cluster(
        mem_blocks=[_block("alice", 10.0), _block("alice", 5.0), _block(None, 2.0)],
        disk_blocks=[_block("bob", 7.0)],
        hits=3, misses=1, shared=1,
    )
    sampler = OccupancySampler(cluster, interval_seconds=1.0, max_samples=100)
    sampler.on_advance(1.0)
    (sample,) = sampler.samples
    assert sample.memory_used_bytes == 17.0
    assert sample.disk_used_bytes == 7.0
    # Sorted tenant keys; ownerless blocks land under "default".
    assert sample.memory_by_tenant == (("alice", 15.0), ("default", 2.0))
    assert sample.disk_by_tenant == (("bob", 7.0),)
    assert sample.tenant_memory("alice") == 15.0
    assert sample.tenant_memory("nobody") == 0.0
    assert sample.hit_ratio == 0.75
    assert sample.shared_hit_rate == pytest.approx(1 / 3)
    assert sample.quota_headroom == ()
    assert sample.queue_depth == 0


def test_sampler_fires_from_the_clock_listener_hook():
    clock = VirtualClock()
    sampler = OccupancySampler(_stub_cluster(), interval_seconds=0.5, max_samples=100)
    clock.add_listener(sampler.on_advance)
    clock.advance_by(1.2)
    assert [s.ts for s in sampler.samples] == [0.5, 1.0]
    clock.remove_listener(sampler.on_advance)
    clock.advance_by(5.0)
    assert len(sampler.samples) == 2, "detached listener must stay silent"


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------
def _run(obs: ObsConfig | None):
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    return run_experiment(
        "blaze", wl, scale="tiny", seed=3,
        cluster_config=ClusterConfig(
            num_executors=2, slots_per_executor=2,
            memory_store_bytes=24 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        blaze_config=BlazeConfig(obs=obs or ObsConfig()),
    ).report


def test_obs_run_collects_a_monotone_fixed_interval_series(monkeypatch):
    monkeypatch.setattr(hub, "SAMPLE_INTERVAL_SECONDS", 0.25)
    report = _run(ObsConfig(enabled=True))
    assert report.samples, "the run must cross at least one boundary"
    for i, sample in enumerate(report.samples, start=1):
        assert sample.ts == pytest.approx(i * 0.25)
    assert report.act_seconds >= report.samples[-1].ts
    # The pressure run actually exercises the cache, so the series ends
    # with real occupancy and access counters.
    last = report.samples[-1]
    assert last.memory_used_bytes > 0
    assert last.cache_hits > 0 and last.cache_misses > 0
    assert 0.0 < last.hit_ratio < 1.0


def test_max_samples_truncates_a_real_run(monkeypatch):
    monkeypatch.setattr(hub, "SAMPLE_INTERVAL_SECONDS", 0.25)
    monkeypatch.setattr(hub, "MAX_SAMPLES", 5)
    report = _run(ObsConfig(enabled=True))
    assert len(report.samples) == 5


def test_obs_off_report_carries_no_series():
    report = _run(None)
    assert report.samples == ()
    assert report.audit_entries == ()
