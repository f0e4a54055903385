"""Schedules: declarative, virtual-time-stamped plans of per-kind specs.

:class:`Schedule` is the container that ``repro.faults.FaultSchedule`` and
``repro.elastic.ScaleSchedule`` share: a frozen tuple of spec records
(each with a fire time ``at`` and an optional ``executor_id``) that can be
declared inline in tests, serialized into bench manifests, or drawn from
a seed.  A subclass keeps its kinds, its spec validation, its dedicated
spawn-key stream (so its randomness never perturbs workload randomness)
and its per-kind draws; the time draws and their validation live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Iterator

import numpy as np

from ..errors import ConfigError
from .rng import make_rng


@dataclass(frozen=True)
class Schedule:
    """An ordered plan of specs for one application run."""

    specs: tuple[Any, ...] = field(default_factory=tuple)

    #: the subclass's dedicated spawn-key namespace for seeded draws
    _STREAM: ClassVar[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def in_order(self) -> list[Any]:
        """Specs sorted by fire time (stable, so declaration order ties)."""
        return sorted(self.specs, key=lambda spec: spec.at)

    def clamped_to(self, num_executors: int):
        """Normalize executor ids into the cluster's range."""
        return type(self)(
            tuple(
                replace(spec, executor_id=spec.executor_id % num_executors)
                if spec.executor_id is not None
                else spec
                for spec in self.specs
            )
        )

    @classmethod
    def _seeded_draws(
        cls,
        seed: int,
        *,
        horizon_seconds: float,
        num_executors: int,
        count: int,
        count_name: str,
        kinds: tuple[str, ...],
    ) -> tuple[np.random.Generator, Iterator[tuple[float, str, int, int]]]:
        """The stream and its common draws: ``(at, kind, executor_id, pick)``.

        Fire times are uniform over ``[0, horizon)``, sorted; per spec,
        kind, executor and pick come next from the same stream, and the
        subclass draws its per-kind parameters from the returned
        generator before asking for the next spec — a fixed order, so
        adding a kind never reshuffles earlier draws.
        """
        if horizon_seconds <= 0:
            raise ConfigError("horizon_seconds must be > 0")
        if num_executors <= 0:
            raise ConfigError("num_executors must be > 0")
        if count < 0:
            raise ConfigError(f"{count_name} must be >= 0")
        rng = make_rng(seed, cls._STREAM)
        times = sorted(float(t) for t in rng.uniform(0.0, horizon_seconds, size=count))

        def draws() -> Iterator[tuple[float, str, int, int]]:
            for at in times:
                kind = kinds[int(rng.integers(len(kinds)))]
                executor_id = int(rng.integers(num_executors))
                pick = int(rng.integers(1 << 30))
                yield at, kind, executor_id, pick

        return rng, draws()
