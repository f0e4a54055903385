"""Seeded arrival processes: determinism, monotonicity, rate sanity."""

from __future__ import annotations

import pytest

from repro.config import ServiceConfig
from repro.errors import ConfigError
from repro.service import JobService
from repro.service.arrivals import PoissonArrivals


def test_poisson_is_deterministic_per_seed():
    a = PoissonArrivals(seed=7, rate_per_sec=2.0).times(50)
    b = PoissonArrivals(seed=7, rate_per_sec=2.0).times(50)
    c = PoissonArrivals(seed=8, rate_per_sec=2.0).times(50)
    assert a == b
    assert a != c


def test_poisson_times_are_strictly_increasing():
    times = PoissonArrivals(seed=0, rate_per_sec=1.0).times(100)
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert times[0] > 0


def test_poisson_mean_gap_tracks_the_rate():
    times = PoissonArrivals(seed=1, rate_per_sec=4.0).times(2000)
    mean_gap = times[-1] / len(times)
    assert 0.2 < mean_gap < 0.3, "mean inter-arrival should be ~1/rate"


def test_make_arrivals_dispatch():
    """The service builds its Poisson process on the first untimed submit."""
    service = JobService()
    service.submit(lambda client: None, arrival_time=0.0)
    assert service._arrivals is None, "timed submissions draw nothing"
    service.submit(lambda client: None)
    assert isinstance(service._arrivals, PoissonArrivals)
    service.shutdown()


def test_untimed_submissions_draw_from_the_service_seed():
    rate = 0.5
    service = JobService(
        seed=7, service_config=ServiceConfig(arrival_rate_per_sec=rate)
    )
    handles = [service.submit(lambda client: None) for _ in range(5)]
    assert [h.arrival_time for h in handles] == PoissonArrivals(
        service.seed, rate
    ).times(5)
    service.shutdown()


def test_service_config_validation():
    with pytest.raises(ConfigError):
        ServiceConfig(arrival_rate_per_sec=0.0)
    with pytest.raises(ConfigError):
        ServiceConfig(inter_job_policy="random")
    with pytest.raises(ConfigError):
        ServiceConfig(tenant_quotas={"a": -1.0})
