"""Per-executor block manager: the memory/disk tiers plus charged movement.

All block movement goes through these primitives so that every byte crossing
the disk boundary is charged ((de)serialization + throughput) and every
cache event is counted.  Decision-making lives in the cache managers; this
class only executes decisions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import StorageError
from ..storage.columnar import DISK_CODEC, MEMORY_CODEC, ColumnarBatch
from ..tracing.tracer import NULL_TRACER, Tracer, executor_pid
from .blocks import Block, BlockId, BlockLocation
from .stores import BlockStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import ClusterConfig
    from ..metrics.collector import MetricsCollector, TaskMetrics


class BlockManager:
    """Storage tiers of one executor."""

    def __init__(
        self,
        executor_id: int,
        config: "ClusterConfig",
        metrics: "MetricsCollector",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.executor_id = executor_id
        self._config = config
        self._metrics = metrics
        self._tracer = tracer
        self.memory = BlockStore(config.memory_store_bytes, f"mem[{executor_id}]")
        self.disk = BlockStore(config.disk.capacity_bytes, f"disk[{executor_id}]")
        #: residency listeners (the cluster's residency directory is always
        #: one; the Blaze decision layer hooks in to invalidate its epoch
        #: caches and victim index).  Exactly one callback fires per
        #: movement primitive: ``memory_added`` / ``memory_removed`` for
        #: the memory tier, ``disk_changed`` for disk-only transitions,
        #: and an optional ``released`` hook on store shutdown.
        self.residency_listeners: list = []
        #: the cluster-wide remote-memory pool + its performance model
        #: (``repro.elastic``); None unless the context was given a scale
        #: schedule.  The pool is shared by every block manager — a block
        #: demoted here is readable fleet-wide and survives preemption.
        self.remote = None
        self.remote_config = None

    def bind_remote(self, store, config) -> None:
        """Attach the shared remote pool (built for a scale schedule)."""
        self.remote = store
        self.remote_config = config

    def _transcode(self, block: Block, codec: str) -> None:
        """Move a ColumnarBatch's payloads to the tier codec, in place.

        Crossing the memory/disk boundary is a codec transition, not a
        re-serialization; list blocks pass through untouched.  Virtual
        I/O charges keep using the modeled ``block.size_bytes``, so traces
        and decisions are independent of the wall-clock transcode.
        """
        data = block.data
        if isinstance(data, ColumnarBatch) and data.transcode(codec):
            self._metrics.codec_transitions += 1

    def _trace(self, name: str, block: Block) -> None:
        """Emit one cache event on this executor's storage timeline."""
        self._tracer.instant(
            name, "cache",
            pid=executor_pid(self.executor_id),
            rdd=block.rdd_id, split=block.split, bytes=block.size_bytes,
        )

    # ------------------------------------------------------------------
    # Residency listeners
    # ------------------------------------------------------------------
    def add_residency_listener(self, listener) -> None:
        """Register a residency listener (fired on every tier transition)."""
        if listener not in self.residency_listeners:
            self.residency_listeners.append(listener)

    def remove_residency_listener(self, listener) -> None:
        """Unregister a listener; unknown listeners are ignored."""
        if listener in self.residency_listeners:
            self.residency_listeners.remove(listener)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def location_of(self, block_id: BlockId) -> BlockLocation | None:
        if block_id in self.memory:
            return BlockLocation.MEMORY
        if block_id in self.disk:
            return BlockLocation.DISK
        return None

    def get(self, block_id: BlockId) -> Block | None:
        return self.memory.get(block_id) or self.disk.get(block_id)

    # ------------------------------------------------------------------
    # Charging helpers
    # ------------------------------------------------------------------
    def charge_disk_write(self, block: Block, tm: "TaskMetrics", include_ser: bool = True) -> None:
        """Serialize + write ``block`` to the executor disk (time only).

        ``include_ser=False`` skips the serialization charge for stores that
        already hold serialized bytes in memory (the Alluxio-like mode).
        """
        disk = self._config.disk
        if include_ser:
            tm.ser_seconds += block.size_bytes * disk.ser_seconds_per_byte * block.ser_factor
        tm.cache_disk_write_seconds += block.size_bytes / disk.write_bytes_per_sec
        tm.cache_bytes_written += block.size_bytes

    def charge_disk_read(self, block: Block, tm: "TaskMetrics") -> None:
        """Read + deserialize ``block`` from the executor disk (time only)."""
        disk = self._config.disk
        tm.cache_disk_read_seconds += block.size_bytes / disk.read_bytes_per_sec
        tm.deser_seconds += block.size_bytes * disk.deser_seconds_per_byte * block.ser_factor
        tm.cache_bytes_read += block.size_bytes

    def charge_memory_ser(self, block: Block, tm: "TaskMetrics") -> None:
        """Serialization charged on memory writes (Alluxio-style stores)."""
        disk = self._config.disk
        tm.ser_seconds += block.size_bytes * disk.ser_seconds_per_byte * block.ser_factor

    def charge_memory_deser(self, block: Block, tm: "TaskMetrics") -> None:
        """Deserialization charged on memory reads (Alluxio-style stores)."""
        disk = self._config.disk
        tm.deser_seconds += block.size_bytes * disk.deser_seconds_per_byte * block.ser_factor

    def charge_remote_write(self, block: Block, tm: "TaskMetrics") -> None:
        """Serialize + push ``block`` to the remote-memory tier (time only).

        Mirrors :meth:`~repro.core.cost_model.CostModel.remote_write_cost`
        operand for operand so recovery-cost calibration stays exact.
        """
        remote = self.remote_config
        tm.ser_seconds += block.size_bytes * remote.ser_seconds_per_byte * block.ser_factor
        tm.remote_tier_write_seconds += (
            remote.latency_seconds + block.size_bytes / remote.write_bytes_per_sec
        )

    def charge_remote_tier_read(self, block: Block, tm: "TaskMetrics") -> None:
        """Pull + deserialize ``block`` from the remote-memory tier.

        Mirrors :meth:`~repro.core.cost_model.CostModel.cost_remote`
        operand for operand so recovery-cost calibration stays exact.
        """
        remote = self.remote_config
        tm.remote_tier_read_seconds += (
            remote.latency_seconds + block.size_bytes / remote.read_bytes_per_sec
        )
        tm.deser_seconds += block.size_bytes * remote.deser_seconds_per_byte * block.ser_factor

    # ------------------------------------------------------------------
    # Movement primitives (callers decide *when*)
    # ------------------------------------------------------------------
    def insert_memory(self, block: Block) -> None:
        """Admit a block to the memory tier (space must exist)."""
        self.memory.put(block)
        for listener in self.residency_listeners:
            listener.memory_added(self.executor_id, block)
        if self._tracer.enabled:
            self._trace("cache.admit_mem", block)

    def insert_disk(self, block: Block, tm: "TaskMetrics", include_ser: bool = True) -> None:
        """Write a freshly produced block straight to disk, charging I/O."""
        self._ensure_disk_space(block.size_bytes)
        self.charge_disk_write(block, tm, include_ser)
        self._transcode(block, DISK_CODEC)
        self.disk.put(block)
        self._metrics.record_disk_put(block.size_bytes)
        for listener in self.residency_listeners:
            listener.disk_changed(self.executor_id, block)
        if self._tracer.enabled:
            self._trace("cache.admit_disk", block)

    def spill_to_disk(self, block_id: BlockId, tm: "TaskMetrics", include_ser: bool = True) -> Block:
        """Evict a memory block to the disk tier, charging write I/O."""
        block = self.memory.remove(block_id)
        self._ensure_disk_space(block.size_bytes)
        self.charge_disk_write(block, tm, include_ser)
        self._transcode(block, DISK_CODEC)
        self.disk.put(block)
        self._metrics.record_disk_put(block.size_bytes)
        self._metrics.record_eviction_to_disk(self.executor_id, block.size_bytes)
        for listener in self.residency_listeners:
            listener.memory_removed(self.executor_id, block)
        if self._tracer.enabled:
            self._trace("cache.evict_spill", block)
        return block

    def discard(self, block_id: BlockId, *, evicted: bool) -> Block:
        """Remove a block from whichever tier holds it.

        ``evicted=True`` counts it as a capacity-driven unpersist (the
        paper's m->u transition); ``False`` is a driver/API unpersist.
        """
        loc = self.location_of(block_id)
        if loc is BlockLocation.MEMORY:
            block = self.memory.remove(block_id)
            for listener in self.residency_listeners:
                listener.memory_removed(self.executor_id, block)
        elif loc is BlockLocation.DISK:
            block = self.disk.remove(block_id)
            self._metrics.record_disk_remove(block.size_bytes)
            for listener in self.residency_listeners:
                listener.disk_changed(self.executor_id, block)
        else:
            raise StorageError(f"discard of unknown block {block_id}")
        self._metrics.record_unpersist(self.executor_id, block.size_bytes, evicted=evicted)
        if self._tracer.enabled:
            self._trace("cache.evict_discard" if evicted else "cache.unpersist", block)
        return block

    def read_from_disk(self, block_id: BlockId, tm: "TaskMetrics") -> Block:
        """Charge a disk read of ``block_id`` and return the block."""
        block = self.disk.get(block_id)
        if block is None:
            raise StorageError(f"disk read of missing block {block_id}")
        self.charge_disk_read(block, tm)
        if self._tracer.enabled:
            self._trace("cache.disk_read", block)
        return block

    def promote_to_memory(self, block_id: BlockId) -> Block | None:
        """Move a disk block into memory if it fits (no charge: data is
        already deserialized in the reading task).  Returns the block when
        promoted, else ``None``."""
        block = self.disk.get(block_id)
        if block is None:
            raise StorageError(f"promote of missing block {block_id}")
        if not self.memory.fits(block.size_bytes):
            return None
        self.disk.remove(block_id)
        self._metrics.record_disk_remove(block.size_bytes)
        self._transcode(block, MEMORY_CODEC)
        self.memory.put(block)
        for listener in self.residency_listeners:
            listener.memory_added(self.executor_id, block)
        if self._tracer.enabled:
            self._trace("cache.promote", block)
        return block

    # ------------------------------------------------------------------
    # Remote-memory tier (``repro.elastic``; primitives are no-ops /
    # errors unless the cluster bound the shared pool via ``bind_remote``)
    # ------------------------------------------------------------------
    def demote_to_remote(self, block_id: BlockId, tm: "TaskMetrics") -> Block | None:
        """Evict a memory block into the cluster-wide remote tier.

        Returns ``None`` (caller falls back to the disk decision) when the
        tier is absent or the pool cannot fit the block; the pool is never
        evicted to make room — remote occupancy is a placement outcome,
        not a second eviction ladder.  Crossing into the tier is a codec
        transition to the disk codec, exactly like a disk spill.
        """
        if self.remote is None:
            return None
        block = self.memory.get(block_id)
        if block is None or not self.remote.fits(block.size_bytes):
            return None
        self.memory.remove(block_id)
        self.charge_remote_write(block, tm)
        self._transcode(block, DISK_CODEC)
        self.remote.put(block)
        self._metrics.remote_demotions += 1
        self._metrics.remote_bytes_written += block.size_bytes
        for listener in self.residency_listeners:
            listener.memory_removed(self.executor_id, block)
        if self._tracer.enabled:
            self._trace("block.demoted_remote", block)
        return block

    def insert_remote(self, block: Block, tm: "TaskMetrics") -> bool:
        """Push a block straight into the remote pool (drain migration)."""
        if self.remote is None or not self.remote.fits(block.size_bytes):
            return False
        self.charge_remote_write(block, tm)
        self._transcode(block, DISK_CODEC)
        self.remote.put(block)
        self._metrics.remote_bytes_written += block.size_bytes
        if self._tracer.enabled:
            self._trace("block.demoted_remote", block)
        return True

    def read_from_remote(self, block_id: BlockId, tm: "TaskMetrics") -> Block:
        """Charge a remote-tier read of ``block_id`` and return the block."""
        block = self.remote.get(block_id) if self.remote is not None else None
        if block is None:
            raise StorageError(f"remote read of missing block {block_id}")
        self.charge_remote_tier_read(block, tm)
        self._metrics.remote_tier_hits += 1
        self._metrics.remote_bytes_read += block.size_bytes
        if self._tracer.enabled:
            self._trace("cache.remote_read", block)
        return block

    def promote_from_remote(self, block_id: BlockId) -> Block | None:
        """Move a remote block into this executor's memory if it fits.

        No charge: the reading task already paid the transfer in
        :meth:`read_from_remote` and holds the deserialized data.
        Promotion transcodes back to the memory codec.
        """
        block = self.remote.get(block_id) if self.remote is not None else None
        if block is None:
            raise StorageError(f"promote of missing remote block {block_id}")
        if not self.memory.fits(block.size_bytes):
            return None
        self.remote.remove(block_id)
        self._transcode(block, MEMORY_CODEC)
        self.memory.put(block)
        self._metrics.remote_promotions += 1
        for listener in self.residency_listeners:
            listener.memory_added(self.executor_id, block)
        if self._tracer.enabled:
            self._trace("cache.promote", block)
        return block

    # ------------------------------------------------------------------
    def extract(self, block_id: BlockId) -> tuple[Block, BlockLocation]:
        """Remove a block for migration (elastic drain).

        Neither an eviction nor a loss: no unpersist/loss accounting and
        no eviction trace, but the residency listeners still fire so the
        directory, victim indexes, and cost memos stay exact.  The caller
        re-inserts the block elsewhere and charges the movement.
        """
        loc = self.location_of(block_id)
        if loc is BlockLocation.MEMORY:
            block = self.memory.remove(block_id)
            for listener in self.residency_listeners:
                listener.memory_removed(self.executor_id, block)
        elif loc is BlockLocation.DISK:
            block = self.disk.remove(block_id)
            self._metrics.record_disk_remove(block.size_bytes)
            for listener in self.residency_listeners:
                listener.disk_changed(self.executor_id, block)
        else:
            raise StorageError(f"extract of unknown block {block_id}")
        return block, loc

    def _ensure_disk_space(self, size_bytes: float) -> None:
        """Free disk space FIFO when the disk tier itself is full."""
        while not self.disk.fits(size_bytes) and len(self.disk):
            victim = next(iter(self.disk.blocks()))
            self.disk.remove(victim.block_id)
            self._metrics.record_disk_remove(victim.size_bytes)
            self._metrics.record_unpersist(self.executor_id, victim.size_bytes, evicted=True)
            for listener in self.residency_listeners:
                listener.disk_changed(self.executor_id, victim)
            if self._tracer.enabled:
                self._trace("cache.disk_evict", victim)
        if not self.disk.fits(size_bytes):
            raise StorageError(
                f"disk[{self.executor_id}] cannot fit a {size_bytes:.0f}B block at all"
            )

    def purge_lost(self, block_id: BlockId) -> Block:
        """Remove a block that *vanished* (executor crash, storage fault).

        This is the invalidation path for removals that are not eviction
        decisions: no unpersist accounting (loss is not a policy outcome),
        but the residency listener still fires so victim indexes and cost
        memos cannot go stale — removing a block behind the listener's
        back leaves a stale victim that a later eviction trips over.
        """
        loc = self.location_of(block_id)
        if loc is BlockLocation.MEMORY:
            block = self.memory.remove(block_id)
            for listener in self.residency_listeners:
                listener.memory_removed(self.executor_id, block)
        elif loc is BlockLocation.DISK:
            block = self.disk.remove(block_id)
            self._metrics.record_disk_remove(block.size_bytes)
            for listener in self.residency_listeners:
                listener.disk_changed(self.executor_id, block)
        else:
            raise StorageError(f"loss of unknown block {block_id}")
        self._metrics.record_block_lost(self.executor_id, block.size_bytes)
        if self._tracer.enabled:
            self._trace("block.lost", block)
        return block

    def purge_all_lost(self) -> list[Block]:
        """Crash wipe: purge every block on this executor (both tiers)."""
        return [self.purge_lost(block.block_id) for block in self.cached_blocks()]

    # ------------------------------------------------------------------
    def cached_blocks(self) -> list[Block]:
        """All blocks on this executor (memory first, then disk)."""
        return list(self.memory.blocks()) + list(self.disk.blocks())

    def release(self) -> None:
        """Drop both tiers without eviction accounting (context shutdown).

        Metric totals (peak occupancy, bytes written) are deliberately left
        untouched: shutdown is not an eviction, and reports stay readable
        after :meth:`~repro.dataflow.context.BlazeContext.stop`.
        """
        self.memory.clear()
        self.disk.clear()
        # Bulk drop, not per-block movement: listeners that mirror
        # residency (the cluster directory) get one wipe notification.
        for listener in self.residency_listeners:
            released = getattr(listener, "released", None)
            if released is not None:
                released(self.executor_id)

    def __repr__(self) -> str:
        return f"<BlockManager exec={self.executor_id} {self.memory!r} {self.disk!r}>"
