"""Lazy, partitioned, immutable datasets (the simulator's RDDs).

An :class:`RDD` describes *how* to compute each of its partitions from its
parents.  Nothing is computed at construction time; actions (``collect``,
``count``, ``reduce``...) submit a job to the driver, which materializes
partitions through the cluster's cache-aware task execution path.

The split between description and execution matters for the reproduction:
the cluster layer resolves every input through the block managers (memory
hit, disk hit, or recursive recomputation) and charges virtual time per the
operator's :class:`~repro.dataflow.operators.OpCost`, which is exactly the
surface Blaze's cost model observes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..errors import DataflowError
from .dependencies import (
    CoalesceDependency,
    Dependency,
    NarrowDependency,
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from .operators import MAP_LIKE, SHUFFLE_LIKE, OpCost, SizeModel
from .partitioner import HashPartitioner, Partitioner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .context import BlazeContext


class RDD:
    """Base dataset abstraction.

    Subclasses implement :meth:`compute` as a *pure* function of the already
    materialized inputs; input resolution (and all cost accounting) is the
    cluster layer's job.
    """

    def __init__(
        self,
        ctx: "BlazeContext",
        deps: list[Dependency],
        num_partitions: int,
        name: str | None = None,
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        partitioner: Partitioner | None = None,
        sig_extra: tuple = (),
    ) -> None:
        if num_partitions <= 0:
            raise DataflowError("an RDD needs at least one partition")
        self.ctx = ctx
        self.deps = deps
        self.num_partitions = num_partitions
        self.op_cost = op_cost or MAP_LIKE
        self.size_model = size_model or SizeModel()
        #: optional data -> weight mapping for the size model; by default a
        #: partition's modeled bytes scale with its element count, but
        #: edge-holding datasets weigh by total adjacency length so the
        #: power-law degree skew shows up as per-partition size skew.
        self.size_weigher = None
        self.partitioner = partitioner
        self.is_annotated_cached = False
        # ``sig_extra`` carries the subclass-specific identity ingredients
        # (user functions, payloads, flags) that the job service fingerprints
        # for cross-application lineage dedup; the legacy single-tenant path
        # ignores it and assigns sequential ids.
        self.rdd_id = ctx.register_rdd(self, (name, *sig_extra))
        self.name = name or f"{type(self).__name__}#{self.rdd_id}"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def narrow_deps(self) -> list[NarrowDependency]:
        return [d for d in self.deps if isinstance(d, NarrowDependency)]

    @property
    def shuffle_deps(self) -> list[ShuffleDependency]:
        return [d for d in self.deps if isinstance(d, ShuffleDependency)]

    @property
    def parents(self) -> list["RDD"]:
        return [d.parent for d in self.deps]

    def narrow_inputs(self, split: int) -> list[tuple["RDD", int]]:
        """(parent, parent_split) pairs needed to compute ``split``."""
        pairs: list[tuple[RDD, int]] = []
        for dep in self.narrow_deps:
            pairs.extend((dep.parent, ps) for ps in dep.parent_splits(split))
        return pairs

    # ------------------------------------------------------------------
    # Computation (implemented by subclasses)
    # ------------------------------------------------------------------
    def compute(
        self,
        split: int,
        narrow_data: list[list],
        shuffle_data: list[list],
    ) -> list:
        """Produce the elements of ``split`` from materialized inputs.

        ``narrow_data`` aligns with :meth:`narrow_inputs`; ``shuffle_data``
        aligns with :attr:`shuffle_deps` (each entry is the merged reduce
        input ``[(key, value_or_values), ...]`` for this split).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Model / annotation helpers
    # ------------------------------------------------------------------
    def with_model(
        self,
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
    ) -> "RDD":
        """Override the cost and/or size model in place (builder style)."""
        if op_cost is not None:
            self.op_cost = op_cost
        if size_model is not None:
            self.size_model = size_model
        return self

    def named(self, name: str) -> "RDD":
        """Set a human-readable name (builder style)."""
        self.name = name
        return self

    def with_weigher(self, weigher) -> "RDD":
        """Set ``weigher(elements) -> weight`` for size modeling."""
        self.size_weigher = weigher
        return self

    def size_weight(self, data) -> float:
        """The size-model weight of a materialized partition.

        Custom weighers win; otherwise the weight is the element count,
        whatever the partition's stored form.
        """
        if self.size_weigher is not None:
            return float(self.size_weigher(data))
        return float(len(data))

    def cache(self) -> "RDD":
        """Annotate this dataset to be cached (Spark ``cache()`` semantics).

        Under Blaze the annotation is ignored: caching is automatic.
        """
        self.is_annotated_cached = True
        return self

    persist = cache

    def unpersist(self) -> "RDD":
        """Drop the annotation and discard any cached partitions."""
        self.is_annotated_cached = False
        self.ctx.unpersist_rdd(self)
        return self

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def map_partitions(
        self,
        fn: Callable[[int, list], Iterable],
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        preserves_partitioning: bool = False,
        name: str | None = None,
        elem_op: "tuple[str, Callable] | None" = None,
        streamable: bool = False,
    ) -> "RDD":
        """Apply ``fn(split_index, elements)`` to each partition.

        ``elem_op`` describes the body as an element-wise operation
        (``("map"|"filter"|"flat_map", fn)``) so the fused data plane can
        pipeline it; ``streamable=True`` declares that ``fn`` consumes its
        input in a single forward pass (and so accepts any iterable).
        Both are optional metadata — execution semantics are unchanged.
        """
        return MapPartitionsRDD(
            self.ctx,
            self,
            fn,
            op_cost=op_cost,
            size_model=size_model,
            preserves_partitioning=preserves_partitioning,
            name=name,
            elem_op=elem_op,
            streamable=streamable,
        )

    def map(self, fn: Callable[[Any], Any], **kwargs) -> "RDD":
        """Element-wise transform."""
        return self.map_partitions(
            lambda _s, part: [fn(x) for x in part], elem_op=("map", fn), **kwargs
        )

    def filter(self, pred: Callable[[Any], bool], **kwargs) -> "RDD":
        """Keep elements satisfying ``pred``."""
        kwargs.setdefault("preserves_partitioning", True)
        return self.map_partitions(
            lambda _s, part: [x for x in part if pred(x)],
            elem_op=("filter", pred),
            **kwargs,
        )

    def flat_map(self, fn: Callable[[Any], Iterable], **kwargs) -> "RDD":
        """Element-wise transform producing zero or more outputs each."""
        return self.map_partitions(
            lambda _s, part: [y for x in part for y in fn(x)],
            elem_op=("flat_map", fn),
            **kwargs,
        )

    def map_values(self, fn: Callable[[Any], Any], **kwargs) -> "RDD":
        """Transform the value of each (key, value) pair, keeping keys."""
        kwargs.setdefault("preserves_partitioning", True)

        def mv(kv, fn=fn):
            k, v = kv
            return (k, fn(v))

        return self.map_partitions(
            lambda _s, part: [(k, fn(v)) for k, v in part],
            elem_op=("map", mv),
            **kwargs,
        )

    def key_by(self, fn: Callable[[Any], Any], **kwargs) -> "RDD":
        """Turn elements into (fn(x), x) pairs."""
        return self.map_partitions(
            lambda _s, part: [(fn(x), x) for x in part],
            elem_op=("map", lambda x, fn=fn: (fn(x), x)),
            **kwargs,
        )

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two datasets (narrow; partitions are juxtaposed)."""
        return UnionRDD(self.ctx, [self, other])

    def coalesce(self, num_partitions: int, **kwargs) -> "RDD":
        """Shrink to ``num_partitions`` by packing contiguous partitions
        together (narrow, no shuffle — Spark's ``coalesce``)."""
        if num_partitions == self.num_partitions:
            return self
        return CoalesceRDD(self.ctx, self, num_partitions, **kwargs)

    def zip_partitions(
        self,
        other: "RDD",
        fn: Callable[[int, list, list], Iterable],
        **kwargs,
    ) -> "RDD":
        """Combine co-indexed partitions of two same-width datasets."""
        return ZipPartitionsRDD(self.ctx, [self, other], fn, **kwargs)

    def partition_by(self, partitioner: Partitioner, **kwargs) -> "RDD":
        """Repartition (key, value) pairs by ``partitioner`` (shuffle)."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self.ctx, self, partitioner, combiner=None, group=False, **kwargs)

    def _target_partitioner(self, num_partitions: int | None) -> Partitioner:
        if num_partitions is not None:
            return HashPartitioner(num_partitions)
        if self.partitioner is not None:
            return self.partitioner
        return HashPartitioner(self.num_partitions)

    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        **kwargs,
    ) -> "RDD":
        """Merge values per key with an associative function.

        When this dataset is already hash-partitioned the merge happens
        narrowly inside each partition (no shuffle), matching Spark's
        known-partitioner optimization.
        """
        target = self._target_partitioner(num_partitions)
        if self.partitioner == target:
            def local_reduce(_s: int, part: list) -> list:
                acc: dict = {}
                for k, v in part:
                    acc[k] = fn(acc[k], v) if k in acc else v
                return list(acc.items())

            kwargs.setdefault("op_cost", SHUFFLE_LIKE)
            return self.map_partitions(
                local_reduce, preserves_partitioning=True, streamable=True, **kwargs
            )
        return ShuffledRDD(self.ctx, self, target, combiner=fn, group=False, **kwargs)

    def group_by_key(self, num_partitions: int | None = None, **kwargs) -> "RDD":
        """Group values per key into lists (always a shuffle)."""
        target = self._target_partitioner(num_partitions)
        return ShuffledRDD(self.ctx, self, target, combiner=None, group=True, **kwargs)

    def cogroup(self, other: "RDD", num_partitions: int | None = None, **kwargs) -> "RDD":
        """Pair up grouped values of two keyed datasets: (k, (vs, ws))."""
        width = num_partitions or max(self.num_partitions, other.num_partitions)
        return CoGroupedRDD(self.ctx, self, other, HashPartitioner(width), **kwargs)

    def join(self, other: "RDD", num_partitions: int | None = None, **kwargs) -> "RDD":
        """Inner join of two keyed datasets: (k, (v, w))."""
        grouped = self.cogroup(other, num_partitions, **kwargs)

        def emit(_s: int, part: list) -> list:
            out = []
            for k, (vs, ws) in part:
                for v in vs:
                    for w in ws:
                        out.append((k, (v, w)))
            return out

        return grouped.map_partitions(
            emit, op_cost=SHUFFLE_LIKE, preserves_partitioning=True,
            streamable=True, name=f"join({self.name},{other.name})",
        )

    def distinct(self, num_partitions: int | None = None, **kwargs) -> "RDD":
        """Remove duplicate elements (shuffle by the element itself)."""
        keyed = self.map_partitions(
            lambda _s, part: [(x, None) for x in part],
            elem_op=("map", lambda x: (x, None)),
        )
        reduced = keyed.reduce_by_key(lambda a, _b: a, num_partitions, **kwargs)

        def first(kv):
            k, _ = kv
            return k

        return reduced.map_partitions(
            lambda _s, part: [k for k, _ in part],
            preserves_partitioning=False,
            elem_op=("map", first),
            name=f"distinct({self.name})",
        )

    # ------------------------------------------------------------------
    # Actions (trigger jobs)
    # ------------------------------------------------------------------
    def collect(self) -> list:
        """Materialize and return all elements (driver-side list)."""
        parts = self.ctx.run_job(self, lambda _s, part: part)
        return [x for part in parts for x in part]

    def count(self) -> int:
        """Number of elements."""
        return sum(self.ctx.run_job(self, lambda _s, part: len(part)))

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        """Fold all elements with an associative function."""
        partials = [
            p for p in self.ctx.run_job(
                self, lambda _s, part: _reduce_or_none(fn, part)
            )
            if p is not None
        ]
        if not partials:
            raise DataflowError("reduce() of an empty RDD")
        acc = partials[0]
        for p in partials[1:]:
            acc = fn(acc, p)
        return acc

    def sum(self) -> float:
        """Sum of (numeric) elements."""
        return float(sum(self.ctx.run_job(self, lambda _s, part: sum(part) if part else 0.0)))

    def take(self, n: int) -> list:
        """First ``n`` elements in partition order (materializes everything).

        A simulator simplification: real Spark runs incremental jobs; here a
        single job materializes the dataset, which charges identical cache
        traffic for our purposes.
        """
        if n < 0:
            raise DataflowError("take() needs a non-negative count")
        out: list = []
        for part in self.ctx.run_job(self, lambda _s, part: part):
            for x in part:
                if len(out) == n:
                    return out
                out.append(x)
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} R{self.rdd_id} '{self.name}' x{self.num_partitions}>"


def _reduce_or_none(fn: Callable[[Any, Any], Any], part: list) -> Any:
    if not part:
        return None
    acc = part[0]
    for x in part[1:]:
        acc = fn(acc, x)
    return acc


class SourceRDD(RDD):
    """A dataset generated per partition by ``gen_fn(split, rng)``.

    Generation is deterministic: the RNG is derived from the context seed,
    the RDD id and the split, so recomputation after eviction reproduces
    identical data (needed for the recovery layer to be semantically sound).
    """

    def __init__(
        self,
        ctx: "BlazeContext",
        gen_fn: Callable[[int, Any], Iterable],
        num_partitions: int,
        **kwargs,
    ) -> None:
        super().__init__(ctx, [], num_partitions, sig_extra=("source", gen_fn), **kwargs)
        self._gen_fn = gen_fn

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        rng = self.ctx.rng_for(self.rdd_id, split)
        return list(self._gen_fn(split, rng))


class ParallelCollectionRDD(RDD):
    """A driver-side collection sliced into partitions."""

    def __init__(self, ctx: "BlazeContext", data: list, num_partitions: int, **kwargs) -> None:
        super().__init__(
            ctx, [], num_partitions, sig_extra=("data", tuple(data)), **kwargs
        )
        self._slices = _slice(data, num_partitions)

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        return list(self._slices[split])


def _slice(data: list, n: int) -> list[list]:
    """Split ``data`` into ``n`` contiguous, size-balanced chunks."""
    size = len(data)
    return [data[size * i // n : size * (i + 1) // n] for i in range(n)]


class MapPartitionsRDD(RDD):
    """Narrow one-to-one transform of a single parent.

    ``elem_op`` / ``streamable`` carry the fusion metadata described on
    :meth:`RDD.map_partitions`; both default to "opaque partition body".
    """

    def __init__(
        self,
        ctx: "BlazeContext",
        parent: RDD,
        fn: Callable[[int, list], Iterable],
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        preserves_partitioning: bool = False,
        name: str | None = None,
        elem_op: "tuple[str, Callable] | None" = None,
        streamable: bool = False,
    ) -> None:
        super().__init__(
            ctx,
            [OneToOneDependency(parent)],
            parent.num_partitions,
            name=name,
            op_cost=op_cost or MAP_LIKE,
            size_model=size_model or parent.size_model,
            partitioner=parent.partitioner if preserves_partitioning else None,
            sig_extra=("map", fn, streamable, preserves_partitioning),
        )
        self._fn = fn
        self.elem_op = elem_op
        self.streamable = streamable

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        (parent_part,) = narrow_data
        out = self._fn(split, parent_part)
        # partitions are immutable engine-wide, so a body that already
        # built a fresh list needs no defensive copy
        return out if type(out) is list else list(out)


class UnionRDD(RDD):
    """Concatenation: child partitions are the parents' partitions in order."""

    def __init__(self, ctx: "BlazeContext", parents: list[RDD], **kwargs) -> None:
        if not parents:
            raise DataflowError("union needs at least one parent")
        deps: list[Dependency] = []
        offset = 0
        for parent in parents:
            deps.append(RangeDependency(parent, 0, offset, parent.num_partitions))
            offset += parent.num_partitions
        super().__init__(ctx, deps, offset, sig_extra=("union",), **kwargs)

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        (parent_part,) = narrow_data
        return parent_part  # pass-through; partitions are immutable


class CoalesceRDD(RDD):
    """Narrow repartitioning: packs contiguous parent partitions together."""

    def __init__(
        self,
        ctx: "BlazeContext",
        parent: RDD,
        num_partitions: int,
        **kwargs,
    ) -> None:
        kwargs.setdefault("size_model", parent.size_model)
        super().__init__(
            ctx,
            [CoalesceDependency(parent, num_partitions)],
            num_partitions,
            sig_extra=("coalesce",),
            **kwargs,
        )

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        if len(narrow_data) == 1:
            return narrow_data[0]  # pass-through; partitions are immutable
        out: list = []
        for part in narrow_data:
            out.extend(part)
        return out


class ZipPartitionsRDD(RDD):
    """Combine co-indexed partitions of equal-width parents."""

    def __init__(
        self,
        ctx: "BlazeContext",
        parents: list[RDD],
        fn: Callable[..., Iterable],
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        name: str | None = None,
        preserves_partitioning: bool = False,
    ) -> None:
        widths = {p.num_partitions for p in parents}
        if len(widths) != 1:
            raise DataflowError(f"zip_partitions requires equal widths, got {sorted(widths)}")
        super().__init__(
            ctx,
            [OneToOneDependency(p) for p in parents],
            parents[0].num_partitions,
            name=name,
            op_cost=op_cost or MAP_LIKE,
            size_model=size_model or parents[0].size_model,
            partitioner=parents[0].partitioner if preserves_partitioning else None,
            sig_extra=("zip", fn),
        )
        self._fn = fn

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        out = self._fn(split, *narrow_data)
        return out if type(out) is list else list(out)


class ShuffledRDD(RDD):
    """Reduce side of a shuffle: one partition per reduce split.

    With a ``combiner`` the output is ``(k, combined_value)`` per key; with
    ``group=True`` it is ``(k, [values])``; with neither, raw ``(k, v)``
    records land in their target partition (``partition_by``).
    """

    def __init__(
        self,
        ctx: "BlazeContext",
        parent: RDD,
        partitioner: Partitioner,
        combiner: Callable[[Any, Any], Any] | None,
        group: bool,
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        name: str | None = None,
    ) -> None:
        dep = ShuffleDependency(parent, partitioner, combiner=combiner)
        super().__init__(
            ctx,
            [dep],
            partitioner.num_partitions,
            name=name,
            op_cost=op_cost or SHUFFLE_LIKE,
            size_model=size_model or parent.size_model,
            partitioner=partitioner,
            sig_extra=("shuffled", group),
        )
        self._group = group

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        (records,) = shuffle_data
        dep = self.shuffle_deps[0]
        if dep.combiner is not None or self._group:
            return records  # shuffle layer already merged/grouped (fresh list)
        # partition_by: the shuffle layer groups values; flatten them back
        # into raw (k, v) records.
        return [(k, v) for k, vs in records for v in vs]


class CoGroupedRDD(RDD):
    """Two-parent grouping producing (k, ([left values], [right values])).

    A parent that is already partitioned by the target partitioner joins
    through a *narrow* one-to-one dependency (no re-shuffle) — Spark's
    co-partitioning optimization, which GraphX-style iterative workloads
    rely on to read the cached graph/rank partitions directly every
    iteration.  Other parents contribute through shuffle dependencies.
    """

    def __init__(
        self,
        ctx: "BlazeContext",
        left: RDD,
        right: RDD,
        partitioner: Partitioner,
        op_cost: OpCost | None = None,
        size_model: SizeModel | None = None,
        name: str | None = None,
    ) -> None:
        deps: list[Dependency] = []
        sides: list[str] = []
        for parent in (left, right):
            if parent.partitioner == partitioner:
                deps.append(OneToOneDependency(parent))
                sides.append("narrow")
            else:
                deps.append(ShuffleDependency(parent, partitioner, combiner=None))
                sides.append("shuffle")
        super().__init__(
            ctx,
            deps,
            partitioner.num_partitions,
            name=name or f"cogroup({left.name},{right.name})",
            op_cost=op_cost or SHUFFLE_LIKE,
            size_model=size_model or left.size_model,
            partitioner=partitioner,
            sig_extra=("cogroup",),
        )
        self._sides = sides

    def compute(self, split: int, narrow_data: list[list], shuffle_data: list[list]) -> list:
        # Single-lookup dict grouping with bound locals; a vectorized
        # (argsort-based) variant was benchmarked and lost at every batch
        # size — the per-key value lists dominate, not the key probing.
        sides = self._side_records(narrow_data, shuffle_data)
        merged: dict = {}
        get = merged.get
        for side_idx, (records, grouped) in enumerate(sides):
            if grouped:
                for k, vs in records:  # grouped (k, [values])
                    entry = get(k)
                    if entry is None:
                        merged[k] = entry = ([], [])
                    entry[side_idx].extend(vs)
            else:
                for k, v in records:  # raw (k, v) records
                    entry = get(k)
                    if entry is None:
                        merged[k] = entry = ([], [])
                    entry[side_idx].append(v)
        return list(merged.items())

    def _side_records(
        self, narrow_data: list[list], shuffle_data: list[list]
    ) -> list[tuple[list, bool]]:
        """Each side's records paired with whether values arrive grouped."""
        narrow_iter = iter(narrow_data)
        shuffle_iter = iter(shuffle_data)
        return [
            (next(shuffle_iter), True) if kind == "shuffle" else (next(narrow_iter), False)
            for kind in self._sides
        ]
