"""Shuffle data plane: map-output catalog, write/fetch with cost charging.

Map tasks bucket their output records by the dependency's partitioner and
register the buckets here; reduce tasks fetch and merge the buckets for
their split.  Outputs persist across jobs (Spark's shuffle-file reuse, which
makes repeated stages "skipped") until the driver cleans them up per the
``shuffle_retention_jobs`` setting — after that, recomputation must re-run
the upstream map work, which is the expensive-recovery path the paper's
cost model reasons about.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any

import numpy as np

from ..dataflow.dependencies import ShuffleDependency
from ..dataflow.fusion import BULK_MIN_RECORDS, int_keys_of
from ..dataflow.partitioner import HashPartitioner, Partitioner, RangePartitioner
from ..errors import ShuffleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import ClusterConfig
    from ..metrics.collector import TaskMetrics

#: "key absent" marker for single-lookup combiner merges (None is a
#: legitimate shuffle value, see ``distinct``)
_MISSING = object()


def merge_bucket_lists(bucket_lists, combiner) -> list[tuple[Any, Any]]:
    """Merge per-map bucket lists into ``(k, combined)`` / ``(k, [values])``.

    The buckets are consumed in place (no concatenated intermediate copy)
    by one single-lookup dict pass.  An argsort-based vectorized grouping
    was tried here and measured 3-5x *slower* than this loop at every batch
    size — building the many small per-key value lists is the dominant cost
    and numpy cannot help with it.

    Shared by :meth:`ShuffleManager.fetch` and the shard workers'
    speculative evaluator, which must reproduce the fetch's merge order
    bit-for-bit for the coordinator's replay to substitute its results.
    """
    merged: dict[Any, Any] = {}
    get = merged.get
    if combiner is not None:
        for bucket in bucket_lists:
            for k, v in bucket:
                cur = get(k, _MISSING)
                merged[k] = v if cur is _MISSING else combiner(cur, v)
    else:
        for bucket in bucket_lists:
            for k, v in bucket:
                values = get(k)
                if values is None:
                    merged[k] = [v]
                else:
                    values.append(v)
    return list(merged.items())


class ShuffleManager:
    """Global catalog of shuffle map outputs (the simulator's shuffle files)."""

    def __init__(self, config: "ClusterConfig") -> None:
        self._config = config
        # shuffle_id -> map_split -> reduce_split -> list of (k, v) records
        self._outputs: dict[int, dict[int, dict[int, list]]] = {}
        # shuffle_id -> id of the job whose execution produced the outputs
        self._producer_job: dict[int, int] = {}
        #: how many leading splits of a dataset run: unbounded, except in
        #: the profiling sandbox, which samples one wave per stage
        self.split_limit = sys.maxsize

    # ------------------------------------------------------------------
    def splits(self, num_partitions: int) -> range:
        """The splits of a ``num_partitions``-wide dataset that run.

        A stage runs exactly these tasks, and a shuffle is complete when
        exactly these map splits have registered, so the driver asks here
        for its stage splits too.
        """
        return range(min(num_partitions, self.split_limit))

    def is_complete(self, dep: ShuffleDependency) -> bool:
        """True when every map split that runs has registered its buckets."""
        present = self._outputs.get(dep.shuffle_id)
        return present is not None and len(present) == len(
            self.splits(dep.parent.num_partitions)
        )

    def missing_map_splits(self, dep: ShuffleDependency) -> list[int]:
        present = self._outputs.get(dep.shuffle_id, {})
        return [s for s in self.splits(dep.parent.num_partitions) if s not in present]

    def release(self) -> None:
        """Drop every registered shuffle output (context shutdown)."""
        self._outputs.clear()
        self._producer_job.clear()

    # ------------------------------------------------------------------
    def write(
        self,
        dep: ShuffleDependency,
        map_split: int,
        elements: Any,
        tm: "TaskMetrics",
        job_id: int,
    ) -> None:
        """Bucket ``elements`` (key, value pairs) and register the output.

        ``elements`` is a list or a ColumnarBatch — both iterate as (k, v)
        records, and a batch short-circuits the key-column extraction in
        ``_bucket_bulk``.

        Charges map-side combine happens here when the dependency carries a
        combiner (reduceByKey), shrinking the shuffled bytes like Spark.
        """
        partitioner = dep.partitioner
        combiner = dep.combiner
        if combiner is not None:
            combined: dict[Any, Any] = {}
            get = combined.get
            for k, v in elements:
                cur = get(k, _MISSING)
                combined[k] = v if cur is _MISSING else combiner(cur, v)
            records: list[tuple[Any, Any]] = list(combined.items())
        else:
            records = elements  # read-only from here on; no defensive copy

        buckets = self._bucket_bulk(records, partitioner)
        if buckets is None:
            buckets = {}
            get_bucket = buckets.get
            partition_for = partitioner.partition_for
            for kv in records:
                pid = partition_for(kv[0])
                bucket = get_bucket(pid)
                if bucket is None:
                    buckets[pid] = [kv]
                else:
                    bucket.append(kv)

        bytes_out = dep.parent.size_model.bytes_for(len(records))
        ser = self._config.disk.ser_seconds_per_byte * dep.parent.size_model.ser_factor
        tm.shuffle_write_seconds += bytes_out / self._config.disk.write_bytes_per_sec
        tm.shuffle_write_seconds += bytes_out * ser
        tm.shuffle_bytes += bytes_out

        self._outputs.setdefault(dep.shuffle_id, {})[map_split] = buckets
        self._producer_job.setdefault(dep.shuffle_id, job_id)

    @staticmethod
    def _bucket_bulk(records, partitioner: Partitioner) -> dict[int, list] | None:
        """Vectorized bucketing for integer keys under the stock partitioners.

        The expensive part of the per-record path is the Python call chain
        ``partition_for`` -> ``_stable_hash`` per record; here the whole
        partition-id column is computed in one array expression (matching
        ``_stable_hash``'s integer passthrough exactly, negative keys
        included), leaving a single zip/append pass that preserves the
        per-record path's bucket and record order bit-for-bit.  (A full
        argsort gather was measured slower than this shape — the append
        loop is cheap once the per-record hashing is gone.)
        None -> caller uses the exact per-record path.
        """
        n = len(records)
        if n < BULK_MIN_RECORDS:
            return None
        keys = int_keys_of(records)
        if keys is None:
            return None
        n_parts = partitioner.num_partitions
        if type(partitioner) is HashPartitioner:
            pids = keys % n_parts
        elif type(partitioner) is RangePartitioner:
            ks = partitioner.key_space
            clamped = np.clip(keys, 0, ks - 1)
            pids = np.minimum(clamped * n_parts // ks, n_parts - 1)
        else:
            return None
        buckets: dict[int, list] = {}
        get_bucket = buckets.get
        for kv, pid in zip(records, pids.tolist()):
            bucket = get_bucket(pid)
            if bucket is None:
                buckets[pid] = [kv]
            else:
                bucket.append(kv)
        return buckets

    def fetch(
        self,
        dep: ShuffleDependency,
        reduce_split: int,
        tm: "TaskMetrics",
    ) -> list[tuple[Any, Any]]:
        """Gather and merge this reduce split's records from all map outputs.

        Returns ``(k, combined)`` pairs when the dependency has a combiner,
        otherwise ``(k, [values])`` groups.  Charges network fetch time plus
        deserialization.
        """
        bucket_lists = self.bucket_lists_for(dep, reduce_split)
        merged_items = merge_bucket_lists(bucket_lists, dep.combiner)
        n_records = sum(len(bucket) for bucket in bucket_lists)
        self._charge_fetch_costs(dep, n_records, tm)
        return merged_items

    def bucket_lists_for(
        self, dep: ShuffleDependency, reduce_split: int
    ) -> list[list]:
        """This reduce split's raw buckets, one per map split, in map order.

        Raises when the shuffle is incomplete (same guard as ``fetch``).
        The shard coordinator peeks these zero-copy to ship reduce inputs
        to workers, so the returned lists must not be mutated.
        """
        if not self.is_complete(dep):
            raise ShuffleError(
                f"shuffle {dep.shuffle_id} fetch with missing map outputs: "
                f"{self.missing_map_splits(dep)}"
            )
        per_map = self._outputs[dep.shuffle_id]
        return [
            per_map[map_split].get(reduce_split, ())
            for map_split in self.splits(dep.parent.num_partitions)
        ]

    def charge_fetch(
        self,
        dep: ShuffleDependency,
        reduce_split: int,
        tm: "TaskMetrics",
    ) -> None:
        """Charge exactly what ``fetch`` would, without building the merge.

        The sharded engine's replay path uses this when a worker already
        merged the reduce input: the virtual costs (and the completeness
        guard) are identical to a real fetch, only the Python-level merge
        work is skipped.
        """
        bucket_lists = self.bucket_lists_for(dep, reduce_split)
        n_records = sum(len(bucket) for bucket in bucket_lists)
        self._charge_fetch_costs(dep, n_records, tm)

    def _charge_fetch_costs(
        self, dep: ShuffleDependency, n_records: int, tm: "TaskMetrics"
    ) -> None:
        bytes_in = dep.parent.size_model.bytes_for(n_records)
        deser = self._config.disk.deser_seconds_per_byte * dep.parent.size_model.ser_factor
        tm.shuffle_read_seconds += self._config.network.latency_seconds
        tm.shuffle_read_seconds += bytes_in / self._config.network.bytes_per_sec
        tm.shuffle_read_seconds += bytes_in * deser
        tm.shuffle_bytes += bytes_in

    # ------------------------------------------------------------------
    def cleanup_older_than(self, min_job_id: int) -> list[int]:
        """Drop outputs produced by jobs older than ``min_job_id``.

        Models Spark's ContextCleaner reclaiming shuffle files once the
        producing datasets fall out of scope.  Returns the dropped ids.
        """
        stale = [sid for sid, jid in self._producer_job.items() if jid < min_job_id]
        for sid in stale:
            self._outputs.pop(sid, None)
            self._producer_job.pop(sid, None)
        return stale

    def drop(self, shuffle_id: int) -> None:
        self._outputs.pop(shuffle_id, None)
        self._producer_job.pop(shuffle_id, None)

    def drop_map_output(self, shuffle_id: int, map_split: int) -> bool:
        """Drop one map partition's buckets (a reported fetch failure).

        The shuffle becomes incomplete, so the next consumer goes through
        the driver's map-stage resubmission path.  Returns whether the
        output existed.
        """
        per_map = self._outputs.get(shuffle_id)
        if per_map is None or map_split not in per_map:
            return False
        del per_map[map_split]
        return True

    def drop_outputs_for_executor(
        self, executor_id: int, executor_for
    ) -> list[tuple[int, int]]:
        """Drop every map output homed on a crashed executor.

        Map outputs live on the producing executor's local storage, and
        tasks are locality-pinned (``executor_for`` is the scheduler's
        split → executor mapping), so a crash loses exactly the map splits
        homed there.  Returns the dropped ``(shuffle_id, map_split)``
        pairs in deterministic order.
        """
        lost: list[tuple[int, int]] = []
        for shuffle_id in sorted(self._outputs):
            per_map = self._outputs[shuffle_id]
            doomed = sorted(
                split for split in per_map
                if executor_for(split).executor_id == executor_id
            )
            for map_split in doomed:
                del per_map[map_split]
                lost.append((shuffle_id, map_split))
        return lost

    def registered_shuffles(self) -> list[int]:
        return sorted(self._outputs.keys())
