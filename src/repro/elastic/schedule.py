"""Scale schedules: declarative, virtual-time-stamped fleet plans.

A schedule is a tuple of :class:`ScaleSpec` records, the elastic twin of
``repro.faults.FaultSchedule``: plain frozen data declared inline in
tests, serialized into bench manifests, or generated from a seed
(:meth:`ScaleSchedule.seeded`) through the same ``SeedSequence``
spawn-key discipline the rest of the simulator uses — scale randomness
never perturbs workload (or fault) randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..sim.schedule import Schedule

#: the three fleet-change event classes
SCALE_KINDS = ("scale_up", "scale_down", "preemption")

#: dedicated spawn-key namespace, disjoint from the fault stream
#: (``0xFA117``) and every per-partition workload generator
_SCHEDULE_STREAM = 0xE1A57


@dataclass(frozen=True)
class ScaleSpec:
    """One scheduled fleet change.

    ``at`` is virtual seconds; the fleet controller processes a spec at
    the first stage boundary at or after ``at`` (task-to-executor
    binding is per-stage, so fleet membership can only change between
    stages).  Per-kind fields:

    - ``scale_up``: activate ``count`` executors (reusing the
      lowest-id parked executors first, then provisioning fresh ones up
      to ``ElasticConfig.max_executors``);
    - ``scale_down``: gracefully drain ``count`` executors — every
      resident block migrates to its new home tier by tier — then park
      them; ``executor_id`` picks the first victim (mod the active
      fleet), subsequent victims follow in id order;
    - ``preemption``: a spot reclaim — the executor is wiped through
      the fault layer's crash path (cached blocks and shuffle outputs
      lost, lineage recovery on next access) and parked with no drain.
      Remote-tier blocks survive: the pool belongs to the cluster.

    Scale-downs and preemptions never shrink the fleet below
    ``ElasticConfig.min_executors``; excess count is skipped.
    """

    at: float
    kind: str
    count: int = 1
    executor_id: int | None = None
    pick: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCALE_KINDS:
            raise ConfigError(f"unknown scale kind {self.kind!r}; known: {SCALE_KINDS}")
        if self.at < 0:
            raise ConfigError("scale event time must be >= 0")
        if self.count < 1:
            raise ConfigError("scale event count must be >= 1")
        if self.executor_id is not None and self.executor_id < 0:
            raise ConfigError("scale event executor_id must be >= 0")


class ScaleSchedule(Schedule):
    """An ordered plan of :class:`ScaleSpec` fleet changes for one run."""

    _STREAM = _SCHEDULE_STREAM

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        horizon_seconds: float,
        num_executors: int,
        num_events: int = 4,
        kinds: tuple[str, ...] = SCALE_KINDS,
    ) -> "ScaleSchedule":
        """Draw a deterministic schedule of ``num_events`` over the horizon.

        The same ``(seed, horizon, executors, n, kinds)`` always yields
        the same schedule (see :meth:`Schedule._seeded_draws`).
        """
        rng, draws = cls._seeded_draws(
            seed, horizon_seconds=horizon_seconds, num_executors=num_executors,
            count=num_events, count_name="num_events", kinds=kinds,
        )
        specs: list[ScaleSpec] = []
        for at, kind, executor_id, pick in draws:
            count = 1 + int(rng.integers(2))
            if kind == "scale_up":
                specs.append(ScaleSpec(at, kind, count=count, pick=pick))
            else:
                specs.append(
                    ScaleSpec(at, kind, count=count, executor_id=executor_id, pick=pick)
                )
        return cls(tuple(specs))
