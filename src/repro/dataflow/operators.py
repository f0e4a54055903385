"""Cost and size models attached to dataflow operators.

The simulator executes operators for real on small data but charges *virtual*
time and *modeled* bytes, which is how a laptop-scale run reproduces
cluster-scale memory pressure.  Each RDD carries:

- an :class:`OpCost` describing the virtual seconds needed to produce one of
  its partitions from already-available parent data, and
- a :class:`SizeModel` mapping the partition's real element count to modeled
  bytes (plus a serialization-cost factor; the paper observes SVD++
  partitions serialize 2.5-6.4x slower than other workloads').
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True, slots=True)
class OpCost:
    """Virtual compute seconds for producing one partition.

    ``seconds = fixed + per_element_in * n_in + per_element_out * n_out``.

    ``fixed`` models task launch plus per-partition setup; the per-element
    terms model the operator body.  Resource-heavy operators (join,
    groupByKey) get larger per-element costs than map/filter, mirroring the
    paper's observation in section 2.1.
    """

    fixed: float = 1e-4
    per_element_in: float = 0.0
    per_element_out: float = 0.0

    def __post_init__(self) -> None:
        if self.fixed < 0 or self.per_element_in < 0 or self.per_element_out < 0:
            raise ConfigError("operator costs must be non-negative")

    def seconds(self, n_in: int, n_out: int) -> float:
        """Virtual seconds to compute a partition with the given cardinalities."""
        return self.fixed + self.per_element_in * n_in + self.per_element_out * n_out

    def scaled(self, factor: float) -> "OpCost":
        """A copy with all components multiplied by ``factor``."""
        if factor < 0:
            raise ConfigError("cost scale factor must be non-negative")
        return OpCost(
            fixed=self.fixed * factor,
            per_element_in=self.per_element_in * factor,
            per_element_out=self.per_element_out * factor,
        )


@dataclass(frozen=True, slots=True)
class SizeModel:
    """Modeled on-heap size of a partition.

    ``bytes = fixed_bytes + bytes_per_element * n_elements``.

    ``ser_factor`` scales the (de)serialization time charged when the
    partition crosses a disk or network boundary, relative to the cluster's
    baseline serialization throughput.

    Sizes are declared, never measured: a partition's stored form (list or
    columnar batch, raw or compressed) cannot change a caching decision.
    """

    bytes_per_element: float = 64.0
    fixed_bytes: float = 0.0
    ser_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.bytes_per_element < 0 or self.fixed_bytes < 0:
            raise ConfigError("size model bytes must be non-negative")
        if self.ser_factor <= 0:
            raise ConfigError("ser_factor must be positive")

    def bytes_for(self, n_elements: float) -> float:
        """Modeled bytes for a partition of weight ``n_elements``."""
        return self.fixed_bytes + self.bytes_per_element * n_elements


#: Cheap element-wise operators (map, filter).
MAP_LIKE = OpCost(fixed=1e-4, per_element_in=2e-7, per_element_out=1e-7)
#: Shuffle-producing aggregations (groupByKey, reduceByKey, join).
SHUFFLE_LIKE = OpCost(fixed=5e-4, per_element_in=8e-7, per_element_out=4e-7)
#: Numeric model updates (gradient computation, centroid update).
COMPUTE_HEAVY = OpCost(fixed=1e-3, per_element_in=4e-6, per_element_out=1e-7)
