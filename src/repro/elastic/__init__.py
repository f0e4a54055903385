"""Elastic fleets and the remote-memory tier (the ``repro.elastic`` layer).

A :class:`ScaleSchedule` declares *when* the fleet changes on the virtual
clock — scale-ups, graceful scale-downs, spot preemptions — either
explicitly or generated from a seed through the simulator's spawn-key
discipline.  A :class:`FleetController` executes the schedule against a
live cluster at stage boundaries: scale-downs drain blocks to their new
homes (memory, the remote tier, or disk), preemptions reuse the fault
layer's crash-wipe + lineage-recovery path, and scale-ups wire fresh
executors into the directory, the decision layer, and the remote pool.

The remote-memory tier is a cluster-owned :class:`~repro.cluster.stores.
BlockStore` between executor memory and disk with its own throughput /
latency / serialization model, threaded through the cost model (Eq. 2/3)
and the eviction ladder; blocks in it survive preemption.

Everything is deterministic: same seed + same schedule ⇒ byte-identical
traces.  The schedule is the switch: passing one to a context builds the
remote tier (an empty one keeps the fleet fixed), and without one the
layer is never built and every elastic counter stays zero.  See
``docs/elasticity.md``.
"""

from .controller import FleetController
from .schedule import SCALE_KINDS, ScaleSchedule, ScaleSpec

__all__ = [
    "SCALE_KINDS",
    "FleetController",
    "ScaleSchedule",
    "ScaleSpec",
]
