"""Dependency-extraction phase: capture, scaling, timeout, seeding."""

import pytest

from repro.config import BlazeConfig
from repro.core.cost_lineage import CostLineage
from repro.core.profiler import run_dependency_extraction
from repro.experiments.runner import run_experiment
from repro.workloads.registry import make_workload


@pytest.fixture(scope="module")
def pr_profile():
    wl = make_workload("pr", "tiny")
    cfg = BlazeConfig(profiling_sample_fraction=0.1)
    return run_dependency_extraction(wl.profiling_run_fn(0.1), cfg), wl


def test_captures_every_job(pr_profile):
    profile, wl = pr_profile
    # PR: 1 pre-processing job + one job per iteration.
    assert profile.num_jobs == 1 + wl.iterations
    assert not profile.truncated


def test_captures_structure(pr_profile):
    profile, _ = pr_profile
    assert profile.parents, "dataset dependencies recorded"
    assert any(name == "links" for name in profile.names.values())
    roots = [rid for rid, parents in profile.parents.items() if not parents]
    assert roots, "source datasets have no parents"


def test_sizes_scaled_to_full_input(pr_profile):
    profile, wl = pr_profile
    links_id = next(rid for rid, n in profile.names.items() if n == "links")
    total = sum(size for (rid, _s), size in profile.sizes.items() if rid == links_id)
    # tiny PR links: ~120 vertices, ~6 edges each at 1.5 MiB per weight unit.
    assert total > 0
    full_elements = wl.num_vertices * wl.avg_degree / wl.avg_degree
    assert total > wl.link_bytes * full_elements * 0.2, "scaled to full-run magnitude"


def test_virtual_seconds_within_timeout(pr_profile):
    profile, _ = pr_profile
    assert 0 < profile.virtual_seconds <= 10.0


def test_timeout_truncates_capture():
    wl = make_workload("pr", "tiny")
    cfg = BlazeConfig(profiling_timeout_seconds=1e-6, profiling_sample_fraction=0.1)
    profile = run_dependency_extraction(wl.profiling_run_fn(0.1), cfg)
    assert profile.truncated
    assert profile.num_jobs < 1 + wl.iterations


def test_seed_populates_lineage(pr_profile):
    profile, _ = pr_profile
    lineage = CostLineage()
    profile.seed(lineage)
    assert lineage.knowledge_complete
    assert lineage.expected_total_jobs == profile.num_jobs
    links_id = next(rid for rid, n in profile.names.items() if n == "links")
    lineage.set_position(0, 0)
    assert lineage.future_refs(links_id) > 1, "links referenced across iterations"


def test_truncated_profile_does_not_mark_complete():
    wl = make_workload("pr", "tiny")
    cfg = BlazeConfig(profiling_timeout_seconds=1e-6, profiling_sample_fraction=0.1)
    profile = run_dependency_extraction(wl.profiling_run_fn(0.1), cfg)
    lineage = CostLineage()
    profile.seed(lineage)
    assert not lineage.knowledge_complete
    assert lineage.expected_total_jobs is None


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item one, step 2: recovery walks of a truncated run teach "
    "induction role offsets no iteration confirmed",
)
def test_a_truncated_profile_never_loses_to_no_profile():
    full = run_experiment("blaze", "pr", scale="tiny").act_seconds
    blind = run_experiment("blaze_no_profile", "pr", scale="tiny").act_seconds
    truncated = run_experiment(
        "blaze", "pr", scale="tiny", blaze_config=BlazeConfig(profiling_timeout_seconds=0.05)
    )
    assert truncated.profiling_seconds == 0.05, "the profile must time out"
    # 6.80 s against 1.05 x max(4.66, 6.05) at seed 0
    assert truncated.act_seconds <= 1.05 * max(full, blind)
