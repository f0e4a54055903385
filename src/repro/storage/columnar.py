"""ColumnarBatch: a chunked numpy record batch, raw in memory, zlib on disk.

A batch is an *exact* stand-in for the Python list it was encoded from: it
is an immutable sequence whose iteration, indexing, and length reproduce
the original records bit-for-bit (int64 <-> int, float64 <-> float, and
bool round-trips are lossless).  Engine code that only reads partitions —
actions, shuffle bucketing, lineage recomputation inputs — consumes a
batch without knowing it isn't a list.

Two layouts are supported:

* **scalar** (``arity is None``): every record is a plain ``int``,
  ``float``, or ``bool`` — one column.
* **tuple** (``arity == k``): every record is a ``tuple`` of exactly ``k``
  scalars with a homogeneous Python type per field — k columns.  Int-keyed
  pairs (the shuffle fast path) are the common case.

Storage is chunked at :data:`CHUNK_ROWS` rows: each chunk holds one
payload per column under the batch's codec.  There are exactly two
codecs, one per tier: the memory tier (:data:`MEMORY_CODEC`) holds the raw
numpy columns, the disk tier (:data:`DISK_CODEC`) holds them
zlib-compressed at level 1.  Moving a batch between tiers is
:meth:`transcode` — a codec transition, not a re-serialization of Python
objects.  ``nbytes`` is the measured sum of stored payload sizes, i.e.
the compressed size on the disk tier.  The engine never prices a
partition by it: modelled sizes come from the declared ``SizeModel``.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterator

import numpy as np

#: Rows per chunk: a tier move re-encodes one chunk of columns at a time.
CHUNK_ROWS = 4096
#: The memory tier's codec: the raw numpy columns, zero copy.
MEMORY_CODEC = "none"
#: The disk tier's codec: DEFLATE-compressed column bytes.
DISK_CODEC = "zlib"
# Level 1 favors throughput: chunk payloads are small and the win over
# higher levels is marginal on numeric columns.
_ZLIB_LEVEL = 1

# Tuples wider than this are not worth columnarizing (and real workload
# records never get close); also bounds the per-batch metadata footprint.
MAX_ARITY = 16

# Python types we can map onto a lossless numpy dtype, by column.
_DTYPE_BY_TYPE: dict[type, np.dtype] = {
    int: np.dtype(np.int64),
    float: np.dtype(np.float64),
    bool: np.dtype(np.bool_),
}

_SUPPORTED_DTYPES = frozenset(_DTYPE_BY_TYPE.values())


def _compress(arr: np.ndarray) -> bytes:
    """One column chunk's disk-tier payload."""
    return zlib.compress(np.ascontiguousarray(arr).tobytes(), _ZLIB_LEVEL)


def _column_array(col: tuple[Any, ...] | list[Any]) -> np.ndarray | None:
    """Lossless dtype for one column, or None if the column isn't analyzable.

    Type *identity* is required — ``bool`` is an ``int`` subclass, and a
    mixed int/float column would decode 1 as 1.0 — so anything but a
    single-type {int}/{float}/{bool} column is rejected.  Ints outside the
    int64 range raise OverflowError in asarray and are rejected too.
    """
    kinds = set(map(type, col))
    if len(kinds) != 1:
        return None
    dtype = _DTYPE_BY_TYPE.get(kinds.pop())
    if dtype is None:
        return None
    try:
        return np.asarray(col, dtype=dtype)
    except (OverflowError, TypeError, ValueError):
        return None


class _Chunk:
    """One horizontal slice of the batch: encoded payloads, one per column."""

    __slots__ = ("n_rows", "payloads")

    def __init__(self, n_rows: int, payloads: list[Any]) -> None:
        self.n_rows = n_rows
        self.payloads = payloads


class ColumnarBatch:
    """Immutable columnar partition; see module docstring for the contract."""

    __slots__ = ("_n", "_arity", "_dtypes", "_chunks", "_codec_name", "_cols_cache")

    def __init__(self, arrays: list[np.ndarray], arity: int | None) -> None:
        n = int(arrays[0].shape[0]) if arrays else 0
        self._n = n
        self._arity = arity
        self._dtypes = tuple(a.dtype for a in arrays)
        self._codec_name = MEMORY_CODEC
        self._cols_cache: tuple[np.ndarray, ...] | None = None
        self._chunks = [
            _Chunk(min(CHUNK_ROWS, n - lo), [a[lo:lo + CHUNK_ROWS] for a in arrays])
            for lo in range(0, n, CHUNK_ROWS)
        ]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_records(cls, records: list[Any]) -> "ColumnarBatch | None":
        """Encode a list of records on the memory tier, or return None if
        it isn't analyzable.

        Empty lists return None (there is nothing to type-analyze, and an
        empty list is already as small as it gets).
        """
        n = len(records)
        if n == 0:
            return None
        r0 = records[0]
        if type(r0) is tuple:
            k = len(r0)
            if not 1 <= k <= MAX_ARITY:
                return None
            for r in records:
                if type(r) is not tuple or len(r) != k:
                    return None
            columns: list[Any] = list(zip(*records))
            arity: int | None = k
        elif type(r0) in _DTYPE_BY_TYPE:
            columns = [records]
            arity = None
        else:
            return None
        arrays: list[np.ndarray] = []
        for col in columns:
            arr = _column_array(col)
            if arr is None:
                return None
            arrays.append(arr)
        return cls(arrays, arity)

    @classmethod
    def from_columns(cls, arrays: list[np.ndarray], arity: int | None) -> "ColumnarBatch":
        """Build from already-validated column arrays (the kernel exit path)."""
        for a in arrays:
            if a.ndim != 1 or a.dtype not in _SUPPORTED_DTYPES:
                raise ValueError(f"unsupported column array {a.dtype!r}/{a.ndim}d")
        if arity is not None and len(arrays) != arity:
            raise ValueError("column count does not match arity")
        return cls(arrays, arity)

    # -- sequence protocol ---------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Any]:
        decode = self._decode_column
        if self._arity is None:
            for chunk in self._chunks:
                yield from decode(chunk, 0).tolist()
        else:
            k = self._arity
            for chunk in self._chunks:
                yield from zip(*(decode(chunk, i).tolist() for i in range(k)))

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return list(self)[index]
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("ColumnarBatch index out of range")
        for chunk in self._chunks:
            if index < chunk.n_rows:
                if self._arity is None:
                    return self._decode_column(chunk, 0)[index].item()
                return tuple(
                    self._decode_column(chunk, i)[index].item()
                    for i in range(self._arity)
                )
            index -= chunk.n_rows
        raise IndexError("ColumnarBatch index out of range")  # pragma: no cover

    def __repr__(self) -> str:
        layout = "scalar" if self._arity is None else f"tuple[{self._arity}]"
        return (
            f"ColumnarBatch(n={self._n}, layout={layout}, "
            f"codec={self._codec_name!r}, chunks={len(self._chunks)}, "
            f"nbytes={self.nbytes})"
        )

    # -- columnar access ------------------------------------------------

    @property
    def arity(self) -> int | None:
        return self._arity

    @property
    def codec_name(self) -> str:
        return self._codec_name

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def layout_signature(self) -> tuple[Any, ...]:
        """Kernel-cache key component: layout plus per-column dtypes."""
        return (self._arity, tuple(dt.char for dt in self._dtypes))

    def _decode_column(self, chunk: _Chunk, i: int) -> np.ndarray:
        payload = chunk.payloads[i]
        if self._codec_name == MEMORY_CODEC:
            return payload
        # frombuffer yields a read-only view of the decompressed bytes —
        # exactly right for immutable partitions.
        return np.frombuffer(
            zlib.decompress(payload), dtype=self._dtypes[i], count=chunk.n_rows
        )

    def columns(self) -> tuple[np.ndarray, ...]:
        """Full column arrays (concatenated across chunks), for kernels.

        Cached only on the memory tier, where the arrays are (for a
        single chunk) the stored payloads themselves.
        """
        if self._cols_cache is not None:
            return self._cols_cache
        decode = self._decode_column
        n_cols = len(self._dtypes)
        if len(self._chunks) == 1:
            cols = tuple(decode(self._chunks[0], i) for i in range(n_cols))
        else:
            cols = tuple(
                np.concatenate([decode(chunk, i) for chunk in self._chunks])
                if self._chunks
                else np.empty(0, dtype=self._dtypes[i])
                for i in range(n_cols)
            )
        if self._codec_name == MEMORY_CODEC:
            self._cols_cache = cols
        return cols

    def int_key_column(self) -> np.ndarray | None:
        """Column 0 when this batch holds int-keyed tuples, else None.

        This is the shuffle fast path: bucketing by key needs exactly the
        key column, already as an int64 array.
        """
        if self._arity is None or not self._dtypes:
            return None
        if self._dtypes[0].kind != "i":
            return None
        return self.columns()[0]

    # -- bytes + tiering ------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Measured stored bytes: payload sizes under the current codec."""
        payloads = (p for chunk in self._chunks for p in chunk.payloads)
        if self._codec_name == MEMORY_CODEC:
            return sum(int(p.nbytes) for p in payloads)
        return sum(len(p) for p in payloads)

    def transcode(self, codec: str) -> bool:
        """Re-encode every chunk under `codec` (:data:`MEMORY_CODEC` or
        :data:`DISK_CODEC`), in place.  Returns True if a transition
        happened (no-op when already under that codec).

        Logical content is untouched, so transcoding is safe under shared
        references (dedup'd blocks, task memos): every reader sees the
        same records before and after.
        """
        if codec == self._codec_name:
            return False
        if codec not in (MEMORY_CODEC, DISK_CODEC):
            raise ValueError(
                f"unknown columnar codec {codec!r} "
                f"(expected {MEMORY_CODEC!r} or {DISK_CODEC!r})"
            )
        n_cols = len(self._dtypes)
        for chunk in self._chunks:
            cols = [self._decode_column(chunk, i) for i in range(n_cols)]
            chunk.payloads = cols if codec == MEMORY_CODEC else list(map(_compress, cols))
        self._codec_name = codec
        self._cols_cache = None
        return True
