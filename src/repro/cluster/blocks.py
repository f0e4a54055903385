"""Cached partition blocks.

A block is one materialized RDD partition held by an executor's block
manager, identified by ``(rdd_id, split)`` exactly like Spark's
``RDDBlockId``.  The block keeps the *real* elements (so cache hits return
correct data) alongside the *modeled* size used for capacity accounting.

``data`` is a plain record list or a
:class:`~repro.storage.columnar.ColumnarBatch`, which iterates, indexes,
and measures length exactly like the list it encodes.  Tier movement may
transcode a batch between codecs in place; ``size_bytes`` is fixed at
admission either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


BlockId = tuple[int, int]
"""(rdd_id, split) — identifies one partition of one dataset."""


class BlockLocation(Enum):
    """Where a block currently lives.

    ``MEMORY`` and ``DISK`` are per-executor tiers; ``REMOTE`` is the
    cluster-wide remote-memory pool (``repro.elastic``), which no single
    executor owns — ``BlockManager.location_of`` never returns it.
    """

    MEMORY = "memory"
    DISK = "disk"
    REMOTE = "remote"


@dataclass
class Block:
    """A materialized partition plus its cache metadata."""

    block_id: BlockId
    data: Any  # list of records, or a ColumnarBatch encoding them
    size_bytes: float
    ser_factor: float = 1.0
    rdd_name: str = ""
    #: virtual time the block was last read (policy input)
    last_access: float = 0.0
    #: number of reads since caching (policy input)
    access_count: int = 0
    #: metadata bag used by policies (e.g. GDWheel credits)
    policy_data: dict = field(default_factory=dict)
    #: tenant whose job materialized the block (quota accounting); None
    #: when no tenancy registry is attached to the cluster.
    tenant: str | None = None

    @property
    def rdd_id(self) -> int:
        return self.block_id[0]

    @property
    def split(self) -> int:
        return self.block_id[1]

    def touch(self, now: float) -> None:
        """Record an access at virtual time ``now``."""
        self.last_access = now
        self.access_count += 1

    def __repr__(self) -> str:
        return f"<Block R{self.rdd_id}.{self.split} {self.size_bytes:.0f}B>"
