"""Vectorized execution of fused element-wise chains over ColumnarBatches.

The kernel engine compiles nothing ahead of time: it *runs* each user
element function once per chain stage with whole column arrays in place of
scalar records.  For a scalar-layout batch the function receives one
ndarray; for a tuple layout it receives a real Python tuple of ndarrays,
so tuple indexing, unpacking, and ``len`` behave exactly as they do on a
record.  Arithmetic and comparisons then broadcast over the whole
partition in one numpy call per operator.

Functions that cannot be vectorized faithfully reveal themselves by
raising: data-dependent branching (``if x > 3``) hits ndarray's ambiguous
``__bool__``; ``int(x)``/``len(x)``/``range(x)`` on arrays raise; and a
``numpy.errstate`` raising on divide/overflow/invalid converts silent IEEE
semantics into exceptions.  Any trapped exception falls the *split* back
to the iterator pipeline before a single observable is emitted, so
fallback is invisible in traces and metrics charges.

Because a function could in principle take a value-dependent path that
differs between scalar and array execution *without* raising, the first
execution of each (chain, layout) pair runs a probe: every stage's output
row 0 is decoded and compared — type-exactly — against the function
applied to the decoded input record 0.  A probe mismatch marks the pair
uncompilable and falls back permanently.  Two caveats are documented in
docs/performance.md: element functions are assumed pure (the probe calls
each function one extra time at compile), and int64 intermediate overflow
on rows other than row 0 is trapped by errstate rather than the probe.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .columnar import MAX_ARITY, ColumnarBatch


class KernelUnsupported(Exception):
    """Internal control flow: this chain/split can't be vectorized."""


# Exceptions that mean "fall back", not "crash the job".  FloatingPointError
# (errstate), OverflowError, and ZeroDivisionError are ArithmeticError
# subclasses; TypeError/ValueError cover ndarray __bool__ ambiguity,
# unsupported operand types, and shape mismatches; AttributeError/KeyError/
# IndexError cover functions poking at record internals arrays don't have.
_TRAPPED = (
    KernelUnsupported,
    ArithmeticError,
    TypeError,
    ValueError,
    AttributeError,
    IndexError,
    KeyError,
)

_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)
_COLUMN_DTYPES = frozenset((_INT64, _FLOAT64, _BOOL))

_CONST_DTYPE: dict[type, np.dtype] = {bool: _BOOL, int: _INT64, float: _FLOAT64}


def _as_column(value: Any, n: int) -> np.ndarray:
    """Normalize one output field to an (n,)-array of a supported dtype."""
    if isinstance(value, np.ndarray):
        if value.shape != (n,) or value.dtype not in _COLUMN_DTYPES:
            raise KernelUnsupported
        return value
    dtype = _CONST_DTYPE.get(type(value))
    if dtype is None:
        # np scalars, strings, None, nested containers: not analyzable.
        raise KernelUnsupported
    # A constant output field: every record maps to the same value.
    # np.full raises OverflowError for ints outside int64 (trapped).
    return np.full(n, value, dtype=dtype)


def _normalize_row(result: Any, n: int) -> tuple[list[np.ndarray], int | None]:
    """Map one function result to (columns, arity) in batch layout terms."""
    if type(result) is tuple:
        k = len(result)
        if not 1 <= k <= MAX_ARITY:
            raise KernelUnsupported
        return [_as_column(v, n) for v in result], k
    return [_as_column(result, n)], None


def _normalize_mask(result: Any, n: int) -> np.ndarray:
    """Coerce a filter predicate result to an (n,) boolean mask.

    Numeric masks go through astype(bool), which matches Python truthiness
    for every float (NaN and inf are truthy) and int (nonzero is truthy).
    """
    if isinstance(result, np.ndarray):
        if result.shape != (n,):
            raise KernelUnsupported
        if result.dtype == _BOOL:
            return result
        if result.dtype.kind in "if":
            return result.astype(np.bool_)
        raise KernelUnsupported
    if type(result) is bool:
        return np.full(n, result, dtype=_BOOL)
    raise KernelUnsupported


def _row0(cols: list[np.ndarray], arity: int | None) -> Any:
    """Decode row 0 of a normalized output back into a Python record."""
    if arity is None:
        return cols[0][0].item()
    return tuple(c[0].item() for c in cols)


def _record0(cols: list[np.ndarray], arity: int | None) -> Any:
    # Identical decode, named separately for readability at call sites.
    return _row0(cols, arity)


def _same_value(a: Any, b: Any) -> bool:
    """Type-exact equality: 1 != 1.0 != True here, and tuples recurse.

    NaN compares unequal to itself, so a NaN at row 0 conservatively fails
    the probe and the chain falls back — correct, merely pessimistic.
    """
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    return bool(a == b)


def _interleave(
    rows: list[tuple[list[np.ndarray], int | None]], n: int
) -> tuple[list[np.ndarray], int | None, int]:
    """Stack a flat_map's per-output-row columns into row-major order.

    ``[y for x in part for y in fn(x)]`` emits, for each input element,
    fn's rows in order — so output column position ``i*k + j`` holds row j
    of input element i.  np.stack(axis=1).reshape(-1) produces exactly
    that interleaving.  Per-field dtypes must agree across rows: silent
    promotion (int row + float row -> all float) would diverge from the
    Python path, so it falls back instead.
    """
    arities = {arity for _, arity in rows}
    if len(arities) != 1:
        raise KernelUnsupported
    out_arity = arities.pop()
    k = len(rows)
    n_fields = 1 if out_arity is None else out_arity
    out_cols: list[np.ndarray] = []
    for f in range(n_fields):
        fields = [cols[f] for cols, _ in rows]
        if len({fld.dtype for fld in fields}) != 1:
            raise KernelUnsupported
        out_cols.append(np.stack(fields, axis=1).reshape(-1))
    return out_cols, out_arity, k


class KernelEngine:
    """Dispatches fused chains to batch-at-a-time numpy execution.

    The compile memo is keyed by (top rdd id, source layout signature):
    element functions are fixed per rdd id for the lifetime of a program,
    so a verdict survives fusion-plan epochs.  ``None`` means unprobed,
    ``True`` compiled, ``False`` permanently fallen back.
    """

    def __init__(self) -> None:
        self._compiled: dict[tuple[int, tuple[Any, ...]], bool] = {}

    def run_chain(
        self,
        chain: Any,
        stages: list[Any],
        src: ColumnarBatch,
        metrics: Any = None,
    ) -> tuple[Any, list[int]] | None:
        """Execute `stages` (source-to-top mids) then the top's element op.

        Returns ``(body, stage_n_outs)`` on success — where ``body`` is
        the top's output batch when the top has an element op, else the
        *mids'* output batch for the caller to stream through the top's
        partition function — or ``None`` to fall back to the iterator
        pipeline.  On fallback nothing observable has happened: no
        charges, no trace events, no mutation of the source batch.
        """
        key = (chain.top.rdd_id, src.layout_signature)
        verdict = self._compiled.get(key)
        if verdict is False:
            return None
        probe = verdict is None and len(src) > 0
        try:
            body, stage_n_outs = self._execute(chain, stages, src, probe)
        except _TRAPPED:
            if probe:
                self._compiled[key] = False
            if metrics is not None:
                metrics.kernel_fallbacks += 1
            return None
        if probe:
            self._compiled[key] = True
            if metrics is not None:
                metrics.kernel_chains_compiled += 1
        return body, stage_n_outs

    def _execute(
        self, chain: Any, stages: list[Any], src: ColumnarBatch, probe: bool
    ) -> tuple[ColumnarBatch, list[int]]:
        cols: list[np.ndarray] = list(src.columns())
        arity = src.arity
        n = len(src)
        ops: list[tuple[str, Callable[[Any], Any], bool]] = [
            (mid.elem_op[0], mid.elem_op[1], True) for mid in stages
        ]
        if chain.top.elem_op is not None:
            kind, fn = chain.top.elem_op
            ops.append((kind, fn, False))
        stage_n_outs: list[int] = []
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            for kind, fn, is_mid in ops:
                sample = _record0(cols, arity) if probe and n else None
                args: Any = cols[0] if arity is None else tuple(cols)
                if kind == "map":
                    cols, arity = _normalize_row(fn(args), n)
                    if sample is not None and not _same_value(
                        fn(sample), _row0(cols, arity)
                    ):
                        raise KernelUnsupported
                elif kind == "filter":
                    mask = _normalize_mask(fn(args), n)
                    if sample is not None and bool(fn(sample)) != bool(mask[0]):
                        raise KernelUnsupported
                    cols = [c[mask] for c in cols]
                    n = int(mask.sum())
                elif kind == "flat_map":
                    produced = fn(args)
                    if not isinstance(produced, (list, tuple)):
                        # A generator would have to be consumed to learn its
                        # arity; vectorizable generators over array args are
                        # materializable, but fn(sample) below must see a
                        # fresh run — keep it simple and require a sequence.
                        raise KernelUnsupported
                    rows = [_normalize_row(r, n) for r in produced]
                    if not rows:
                        # fn emits zero rows for *every* element under array
                        # semantics; an empty chain output is expressible,
                        # but per-element emptiness can't be probed — punt.
                        raise KernelUnsupported
                    if sample is not None:
                        expected = fn(sample)
                        if not isinstance(expected, (list, tuple)) or len(
                            expected
                        ) != len(rows):
                            raise KernelUnsupported
                        for exp, (r_cols, r_arity) in zip(expected, rows):
                            if not _same_value(exp, _row0(r_cols, r_arity)):
                                raise KernelUnsupported
                    cols, arity, k = _interleave(rows, n)
                    n = n * k
                else:
                    raise KernelUnsupported
                if is_mid:
                    stage_n_outs.append(n)
        body = ColumnarBatch.from_columns(cols, arity)
        return body, stage_n_outs
