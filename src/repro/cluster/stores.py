"""Capacity-accounted block stores (memory tier and disk tier).

Stores only track membership and bytes; *when* something is admitted or
evicted is the cache manager's decision, and the I/O time for moving blocks
is charged by the block manager.  Both stores preserve insertion order so
that iteration (and therefore policy tie-breaking) is deterministic.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..errors import StorageError
from .blocks import Block, BlockId

#: Recompute the running total from scratch after this many mutations, so
#: any residual rounding the compensated accumulator could not represent
#: is washed out on a bounded cadence.
_RECONCILE_INTERVAL = 4096


class BlockStore:
    """An ordered, capacity-limited map of blocks.

    ``used_bytes`` is tracked with Neumaier compensated summation (plus a
    reset whenever the store empties and a periodic ``math.fsum``
    reconcile), so the running total stays exact under arbitrarily long
    put/remove churn with float sizes — the naive ``+=``/``-=`` pair
    drifts by about one ulp of the occupancy per operation and needed a
    capacity-scaled negative-occupancy tolerance; this accounting needs
    none.
    """

    def __init__(self, capacity_bytes: float, name: str) -> None:
        if capacity_bytes <= 0:
            raise StorageError(f"{name} capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.name = name
        self._blocks: dict[BlockId, Block] = {}
        # Secondary index: rdd_id -> {block_id: block}, insertion-ordered
        # like the primary map, so per-dataset enumeration needs no O(B)
        # filter over the whole store.
        self._by_rdd: dict[int, dict[BlockId, Block]] = {}
        self._used = 0.0
        self._comp = 0.0  # Neumaier compensation term
        self._mutations = 0

    def _account(self, delta: float) -> None:
        total = self._used + delta
        if abs(self._used) >= abs(delta):
            self._comp += (self._used - total) + delta
        else:
            self._comp += (delta - total) + self._used
        self._used = total
        self._mutations += 1
        if not self._blocks:
            # An empty store holds exactly zero bytes, definitionally.
            self._used = 0.0
            self._comp = 0.0
        elif self._mutations % _RECONCILE_INTERVAL == 0:
            self._used = math.fsum(b.size_bytes for b in self._blocks.values())
            self._comp = 0.0

    @property
    def used_bytes(self) -> float:
        return self._used + self._comp

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def fits(self, size_bytes: float) -> bool:
        return size_bytes <= self.free_bytes

    def put(self, block: Block) -> None:
        """Insert a block; the caller must have made room first."""
        if block.block_id in self._blocks:
            raise StorageError(f"{self.name}: duplicate put of {block.block_id}")
        if not self.fits(block.size_bytes):
            raise StorageError(
                f"{self.name}: block {block.block_id} ({block.size_bytes:.0f}B) "
                f"does not fit in {self.free_bytes:.0f}B free"
            )
        self._blocks[block.block_id] = block
        self._by_rdd.setdefault(block.rdd_id, {})[block.block_id] = block
        self._account(block.size_bytes)

    def get(self, block_id: BlockId) -> Block | None:
        return self._blocks.get(block_id)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def remove(self, block_id: BlockId) -> Block:
        """Remove and return a block; raises if absent."""
        block = self._blocks.pop(block_id, None)
        if block is None:
            raise StorageError(f"{self.name}: remove of missing block {block_id}")
        per_rdd = self._by_rdd.get(block.rdd_id)
        if per_rdd is not None:
            per_rdd.pop(block_id, None)
            if not per_rdd:
                del self._by_rdd[block.rdd_id]
        self._account(-block.size_bytes)
        # Compensated accounting is exact up to one rounding of the final
        # sum; anything visibly negative is a real bookkeeping bug.
        if self.used_bytes < -1e-9 * max(self.capacity_bytes, 1.0):
            raise StorageError(f"{self.name}: negative occupancy after remove")
        return block

    def clear(self) -> None:
        """Drop every block without eviction accounting (shutdown path)."""
        self._blocks.clear()
        self._by_rdd.clear()
        self._used = 0.0
        self._comp = 0.0
        self._mutations = 0

    def blocks(self) -> Iterator[Block]:
        """Blocks in insertion order.

        A live view: callers that mutate the store mid-iteration must
        materialize first (every in-tree call site either builds a list
        or abandons the iterator before mutating).
        """
        return iter(self._blocks.values())

    def blocks_for_rdd(self, rdd_id: int) -> list[Block]:
        """Resident blocks of one dataset, in insertion order."""
        per_rdd = self._by_rdd.get(rdd_id)
        return list(per_rdd.values()) if per_rdd else []

    def resident_rdd_ids(self) -> Iterator[int]:
        """Dataset ids with at least one resident block."""
        return iter(self._by_rdd.keys())

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return (
            f"<{self.name} {len(self._blocks)} blocks "
            f"{self.used_bytes / 1e6:.1f}/{self.capacity_bytes / 1e6:.1f} MB>"
        )
