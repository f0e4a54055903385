"""Columnar partition storage: record batches and vectorized kernels.

Partitions whose records are *type-analyzable* — numeric scalars, or
fixed-arity tuples of numeric scalars (int-keyed pairs being the common
case) — are stored as :class:`ColumnarBatch` record batches when they are
offered to the cache: chunked numpy columns, raw in memory and
zlib-compressed on disk.  Everything else stays a plain Python list.  A
batch decodes to exactly the Python objects the list held, so everything
downstream (actions, shuffle, lineage recovery) is value-identical; the
byte-identical-trace harness, run against the ``list_plane`` test
fixture, is the enforcement mechanism.

Layering: this package depends only on numpy and the stdlib — never on
``repro.dataflow`` or ``repro.cluster`` — so every engine layer may import
it freely.
"""

from .backend import ColumnarBackend
from .columnar import ColumnarBatch
from .kernels import KernelEngine

__all__ = [
    "ColumnarBackend",
    "ColumnarBatch",
    "KernelEngine",
]
