"""The seeded application arrival process over the virtual clock.

Submissions without an explicit arrival time are admitted at times drawn
from this process.  It is a deterministic function of the service seed
(via the repo-wide spawn-key RNG discipline), so the same seed always
produces the same arrival schedule — a prerequisite for byte-identical
multi-tenant traces.
"""

from __future__ import annotations

from ..sim.rng import make_rng

#: spawn-key namespace for arrival streams (kept clear of rdd/split keys).
_ARRIVAL_KEY = 0x5EED


class PoissonArrivals:
    """Homogeneous Poisson process: exponential inter-arrival gaps."""

    def __init__(self, seed: int, rate_per_sec: float) -> None:
        self._rng = make_rng(seed, _ARRIVAL_KEY)
        self._rate = float(rate_per_sec)
        self._t = 0.0

    def next_time(self) -> float:
        self._t += float(self._rng.exponential(1.0 / self._rate))
        return self._t

    def times(self, n: int) -> list[float]:
        return [self.next_time() for _ in range(n)]
