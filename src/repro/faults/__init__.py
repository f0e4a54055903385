"""Deterministic fault injection and recovery (the ``repro.faults`` layer).

A :class:`FaultSchedule` declares *what* goes wrong and *when* on the
virtual clock — executor crashes, single-block loss, straggler slowdowns,
shuffle-fetch failures — either explicitly or generated from a seed via
``repro.sim.rng``.  A :class:`FaultInjector` executes the schedule against
a live cluster: the scheduler polls it at every task start, the driver
retries failed attempts with bounded virtual-time backoff, and lost state
recovers through the engine's lineage paths (disk read-back, recursive
recomputation, shuffle map-stage re-execution).

Everything is deterministic: same seed + same schedule ⇒ byte-identical
traces.  The schedule is the switch: passing one to a context arms the
injector (an empty one only calibrates recovery costs), and without one
the layer is never built.  See ``docs/faults.md``.
"""

from .injector import FaultInjector, InjectedTaskFailure
from .schedule import FAULT_KINDS, FaultSchedule, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "InjectedTaskFailure",
]
