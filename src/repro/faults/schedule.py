"""Fault schedules: declarative, virtual-time-stamped failure plans.

A schedule is a tuple of :class:`FaultSpec` records.  Specs are plain
frozen data so schedules can be declared inline in tests, serialized into
bench manifests, or generated from a seed (:meth:`FaultSchedule.seeded`)
through the same ``SeedSequence`` spawn-key discipline the rest of the
simulator uses — fault randomness never perturbs workload randomness.
The container itself is the shared :class:`~repro.sim.schedule.Schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..sim.schedule import Schedule

#: the four injectable failure classes
FAULT_KINDS = ("executor_crash", "block_loss", "straggler", "fetch_failure")

#: dedicated spawn-key namespace so seeded schedules draw from a stream
#: disjoint from every per-partition workload generator
_SCHEDULE_STREAM = 0xFA117


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at`` is virtual seconds; the injector processes a spec at the first
    task start at or after ``at`` (crashes falling strictly inside a
    running attempt's window fail that attempt post-hoc).  Fields beyond
    ``at``/``kind`` are per-kind:

    - ``executor_crash``: ``executor_id`` — wipes both storage tiers and
      every shuffle map output homed on the executor;
    - ``block_loss``: either an explicit ``(rdd_id, split)`` target or a
      ``pick`` draw resolved against the blocks resident at fire time;
    - ``straggler``: ``executor_id`` (optionally one ``slot``) runs tasks
      ``factor``× slower for ``window_seconds`` after ``at``;
    - ``fetch_failure``: arms a one-shot failure of the next shuffle
      fetch; ``pick`` selects which map output is reported lost.
    """

    at: float
    kind: str
    executor_id: int | None = None
    rdd_id: int | None = None
    split: int | None = None
    pick: int = 0
    slot: int | None = None
    factor: float = 2.0
    window_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.at < 0:
            raise ConfigError("fault time must be >= 0")
        if self.kind in ("executor_crash", "straggler") and self.executor_id is None:
            raise ConfigError(f"{self.kind} needs an executor_id")
        if self.kind == "straggler":
            if self.factor < 1.0:
                raise ConfigError("straggler factor must be >= 1")
            if self.window_seconds <= 0:
                raise ConfigError("straggler window_seconds must be > 0")
        if self.kind == "block_loss" and (self.rdd_id is None) != (self.split is None):
            raise ConfigError("block_loss needs both rdd_id and split, or neither")


class FaultSchedule(Schedule):
    """An ordered plan of :class:`FaultSpec` faults for one application run."""

    _STREAM = _SCHEDULE_STREAM

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        horizon_seconds: float,
        num_executors: int,
        num_faults: int = 4,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultSchedule":
        """Draw a deterministic schedule of ``num_faults`` over the horizon.

        The same ``(seed, horizon, executors, n, kinds)`` always yields the
        same schedule (see :meth:`Schedule._seeded_draws`).
        """
        rng, draws = cls._seeded_draws(
            seed, horizon_seconds=horizon_seconds, num_executors=num_executors,
            count=num_faults, count_name="num_faults", kinds=kinds,
        )
        specs: list[FaultSpec] = []
        for at, kind, executor_id, pick in draws:
            if kind == "executor_crash":
                specs.append(FaultSpec(at, kind, executor_id=executor_id))
            elif kind == "block_loss":
                specs.append(FaultSpec(at, kind, pick=pick))
            elif kind == "straggler":
                factor = 1.5 + 2.5 * float(rng.random())
                window = max(horizon_seconds * 0.2 * float(rng.random()), 1e-3)
                specs.append(
                    FaultSpec(
                        at, kind, executor_id=executor_id,
                        factor=factor, window_seconds=window,
                    )
                )
            else:  # fetch_failure
                specs.append(FaultSpec(at, kind, pick=pick))
        return cls(tuple(specs))
