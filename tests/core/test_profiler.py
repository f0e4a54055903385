"""Dependency-extraction phase: capture, scaling, timeout, seeding."""

from dataclasses import dataclass

import pytest

from repro.cluster.scheduler import SlotScheduler
from repro.cluster.shuffle import ShuffleManager
from repro.config import BlazeConfig
from repro.core.cost_lineage import CostLineage
from repro.core.profiler import profiling_cluster_config, run_dependency_extraction
from repro.experiments.runner import run_experiment
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.registry import WORKLOADS, make_workload


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


#: profiling with no virtual-time budget, so that no capture truncates
_UNBOUNDED = BlazeConfig(profiling_timeout_seconds=1e9)


def _profile(wl):
    return run_dependency_extraction(
        wl.profiling_run_fn(_UNBOUNDED.profiling_sample_fraction), _UNBOUNDED
    )


def _mean_per_dataset(metrics: dict) -> dict[int, float]:
    values: dict[int, list[float]] = {}
    for (rdd_id, _split), value in metrics.items():
        values.setdefault(rdd_id, []).append(value)
    return {rdd_id: sum(v) / len(v) for rdd_id, v in values.items()}


@pytest.mark.parametrize("app", (*WORKLOADS, "wide_reduce"))
def test_sampled_sandbox_captures_the_structure_of_an_unsampled_one(app, monkeypatch):
    wl = _WideReduce() if app == "wide_reduce" else make_workload(app, "paper")
    sampled = _profile(wl)
    monkeypatch.setattr(ShuffleManager, "splits", lambda _self, n: range(n))
    unsampled = _profile(wl)
    assert not sampled.truncated and not unsampled.truncated
    assert sampled.captures == unsampled.captures
    assert sampled.parents == unsampled.parents
    assert sampled.num_splits == unsampled.num_splits
    # downstream of a shuffle the sampled priors are scaled back up by
    # the share of the map side that did not run
    for field in ("sizes", "computes"):
        got = _mean_per_dataset(getattr(sampled, field))
        want = _mean_per_dataset(getattr(unsampled, field))
        assert got.keys() == want.keys()
        for rdd_id, mean in want.items():
            assert got[rdd_id] == pytest.approx(mean, rel=0.3), (field, sampled.names[rdd_id])


@dataclass
class _WideReduce(Workload):
    """Iterative ``map -> reduce_by_key`` over more partitions than slots."""

    num_partitions: int = 40
    reduce_partitions: int = 8
    iterations: int = 3

    name = "wide_reduce"

    def scaled(self, fraction: float) -> "_WideReduce":
        return self

    def run(self, ctx) -> WorkloadResult:
        # distinct keys, as in a wide churn: every map split feeds every
        # reduce split
        src = ctx.source(
            lambda split, _rng: [(2 * split, 1), (2 * split + 1, 2)], self.num_partitions,
            name="rows",
        )
        base = src.map(lambda kv: (kv[0], kv[1] + 1), name="base").cache()
        total = 0
        for i in range(self.iterations):
            sums = base.reduce_by_key(
                lambda a, b: a + b, num_partitions=self.reduce_partitions, name=f"sums{i}"
            )
            total += sum(ctx.run_job(sums, lambda _s, part: len(part)))
        return WorkloadResult(self.name, self.iterations, total)


def test_sandbox_stages_run_one_wave(monkeypatch):
    wl = _WideReduce()
    tasks_per_stage = []
    run_stage = SlotScheduler.run_stage

    def counting(self, tasks, execute):
        tasks_per_stage.append(len(tasks))
        return run_stage(self, tasks, execute)

    monkeypatch.setattr(SlotScheduler, "run_stage", counting)
    profile = run_dependency_extraction(wl.profiling_run_fn(1.0), BlazeConfig())
    wave = profiling_cluster_config().total_slots
    assert wave < wl.num_partitions
    assert not profile.truncated
    assert profile.num_jobs == wl.iterations
    assert profile.num_splits[max(profile.num_splits)] == wl.reduce_partitions
    # every job runs its own shuffle's map stage (40 splits), then its
    # result stage (8)
    assert tasks_per_stage == [wave, wl.reduce_partitions] * wl.iterations
