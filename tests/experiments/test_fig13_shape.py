"""Fig. 13's shape at paper scale: what the profiling phase buys Blaze.

Paper (ACT with profiling over ACT without): PR 0.61, CC 0.77, LR 1.00,
SVD++ 0.92.  Profiling should help the graph workloads most, whose
partitions are referenced across many jobs, and LR not at all.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import fig13_profiling_benefit

#: PR and CC miss the paper's shape; each xfail names the measurement
_PROFILE_HURTS = (
    "regression: with a complete profile paper PR runs 305.1 s against "
    "225.8 s without one (1.35, paper 0.61); see ROADMAP"
)
_PROFILE_BARELY_HELPS = (
    "regression: paper CC runs 231.9 s with the profile against 250.8 s "
    "without (0.92, paper 0.77); see ROADMAP"
)


@pytest.fixture(scope="module")
def normalized() -> dict[str, float]:
    data = fig13_profiling_benefit("paper", 0)
    return {row[0]: row[3] for row in data.rows}


def test_profiling_does_not_help_lr(normalized):
    # a single reused dataset: knowing the future changes nothing
    assert 0.9 < normalized["LR"] <= 1.1


def test_profiling_helps_svdpp(normalized):
    assert normalized["SVD++"] < 1.0


def test_profiling_does_not_hurt_cc(normalized):
    assert normalized["CC"] <= 1.1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_PROFILE_HURTS)
def test_profiling_does_not_hurt_pr(normalized):
    assert normalized["PR"] <= 1.1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_PROFILE_HURTS)
def test_profiling_clearly_helps_pr(normalized):
    assert normalized["PR"] < 0.9
    assert normalized["PR"] < normalized["LR"], "graph apps benefit most"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_PROFILE_BARELY_HELPS)
def test_profiling_clearly_helps_cc(normalized):
    assert normalized["CC"] < 0.9
