"""The export surfaces: Prometheus text and the HTML dashboard."""

from __future__ import annotations

import pytest

from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ObsConfig
from repro.experiments.runner import run_experiment
from repro.obs import render_dashboard_html
from repro.tracing import InMemoryTracer
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload


@pytest.fixture(scope="module")
def report():
    wl = replace_params(make_workload("pr", "tiny"), num_partitions=24)
    result = run_experiment(
        "blaze", wl, scale="tiny", seed=3,
        cluster_config=ClusterConfig(
            num_executors=2, slots_per_executor=2,
            memory_store_bytes=24 * MiB,
            disk=DiskConfig(capacity_bytes=5 * GiB),
        ),
        blaze_config=BlazeConfig(obs=ObsConfig(enabled=True)),
        tracer=InMemoryTracer(),
    )
    assert result.eviction_count > 0
    return result.report


def _parse_exposition(text: str) -> dict[str, float]:
    """Parse un-labeled samples; verify comment/format discipline as we go."""
    values: dict[str, float] = {}
    typed: set[str] = set()
    for line in text.strip().splitlines():
        if line.startswith("# TYPE"):
            _, _, name, mtype = line.split()
            assert mtype in ("counter", "gauge")
            typed.add(name)
            continue
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        name = name_part.split("{", 1)[0]
        assert name in typed, f"sample {name} appeared before its # TYPE"
        float(value)  # must parse
        if "{" not in name_part:
            values[name] = float(value)
    return values


def test_prometheus_exposition_reflects_the_run(report):
    text = report.prometheus()
    assert text.endswith("\n")
    values = _parse_exposition(text)

    assert values["blaze_jobs_total"] == report.job_count
    assert values["blaze_tasks_total"] == report.task_count
    assert values["blaze_evictions_total"] == report.eviction_count > 0
    assert values["blaze_audit_entries_total"] == len(report.audit_entries) > 0
    assert values["blaze_cache_hits_total"] == report.access_counters["cache_hits"]
    assert values["blaze_cache_misses_total"] == report.access_counters["cache_misses"]
    # The gauges come from the last sampler observation.
    last = report.samples[-1]
    assert values["blaze_memory_used_bytes"] == last.memory_used_bytes
    assert values["blaze_hit_ratio"] == pytest.approx(last.hit_ratio)
    assert values["blaze_service_queue_depth"] == last.queue_depth


def test_prometheus_labels_tenant_occupancy(report):
    text = report.prometheus()
    assert 'blaze_tenant_memory_bytes{tenant="' in text
    # Deterministic output: rendering twice gives the same bytes.
    assert text == report.prometheus()


def test_dashboard_renders_self_contained_html(report):
    html = render_dashboard_html(
        report.events, title="pressure run", job_records=report.job_records
    )
    assert html.startswith("<!DOCTYPE html>" ) or "<html" in html
    assert "pressure run" in html
    assert "<svg" in html, "charts are inline SVG"
    # Self-contained: no external assets to fetch.
    assert "http://" not in html and "https://" not in html
    # The critical-path table made it in.
    assert "critical" in html.lower()


def test_dashboard_rejects_nothing_but_needs_events():
    html = render_dashboard_html([])
    assert "<html" in html  # renders an empty shell rather than crashing
