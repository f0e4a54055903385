"""ColumnarBackend: the driver's policy object for the columnar plane.

The driver builds one and uses it to encode partitions as they are
offered to the cache and to dispatch fused chains to the vectorized
kernels.  Tier moves need no backend: the block manager transcodes a
:class:`ColumnarBatch` itself.  Holding it here keeps ``repro.storage``
free of engine imports: the backend speaks in rdds and metrics objects
only through duck-typed attributes.
"""

from __future__ import annotations

from typing import Any

from .columnar import ColumnarBatch
from .kernels import KernelEngine


class ColumnarBackend:
    """Encode memo + kernel engine for one driver's data plane."""

    def __init__(self) -> None:
        self.kernels = KernelEngine()
        # rdd_id -> structural verdict.  True means "this rdd has produced
        # an encodable partition" (heterogeneous splits may still decline
        # individually); False means a non-empty partition was structurally
        # rejected, so stop paying the analysis pass for this rdd.
        self._eligibility: dict[int, bool] = {}

    def encode_for_cache(self, rdd: Any, data: Any, metrics: Any = None) -> Any:
        """Encode a partition about to be offered to the cache, if analyzable.

        Returns the ColumnarBatch, or `data` unchanged when it is already
        a batch, the rdd has a custom size weigher (weighers see records,
        not batches — modeled sizes must not change), or the records are
        not type-analyzable.
        """
        if type(data) is not list:
            return data
        if rdd.size_weigher is not None:
            return data
        if self._eligibility.get(rdd.rdd_id) is False:
            return data
        batch = ColumnarBatch.from_records(data)
        if batch is None:
            if data:  # empty partitions stay undecided
                self._eligibility[rdd.rdd_id] = False
                if metrics is not None:
                    metrics.columnar_encode_rejected += 1
            return data
        self._eligibility[rdd.rdd_id] = True
        if metrics is not None:
            metrics.columnar_batches_encoded += 1
        return batch
