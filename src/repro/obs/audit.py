"""Ring-buffered audit log of caching decisions, with an explain query.

Every admission, eviction, and ILP solve records one :class:`AuditEntry`
capturing the candidate set and the cost terms (Eq. 3 ``cost_d``, Eq. 4
``cost_r``, Eq. 2 ``potential_cost``) that the decision consulted, plus
the quota fairness tier in multi-tenant runs.  Entries are *path
invariant*: the incremental decision engine and the kill-switched naive
path record identical entries for the same run (same timestamps, same
candidates, bit-identical floats — the PR 3 equivalence the decision
cache already guarantees), which is pinned by ``tests/obs``.

The log is a ring: only the most recent ``ring_size`` entries are kept,
so audit memory is bounded no matter how long the run is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cost_lineage import StreamReferences


# NamedTuples, not frozen dataclasses: entries are constructed on the
# admission hot path (one per decision, one per candidate), and tuple
# construction is ~2.5x cheaper — the difference shows up directly in
# the obs-on overhead bar of ``tests/obs/test_overhead.py``.
class CandidateTerm(NamedTuple):
    """One candidate block considered (and possibly chosen) by a decision."""

    rdd_id: int
    split: int
    size_bytes: float
    #: quota fairness tier the victim ranking used (0 = over-quota tenant,
    #: 1 = requester's own / ownerless, 2 = within-quota other tenant);
    #: None outside quota mode.
    tier: int | None = None
    #: Eq. 3 disk read-back cost; None when the policy never consulted it.
    cost_d: float | None = None
    #: Eq. 4 recursive recomputation cost.
    cost_r: float | None = None
    #: Eq. 2 ``min(cost_d, cost_r)``.
    potential_cost: float | None = None
    #: recency key, for policies that rank by last access.
    last_access: float | None = None
    #: the state this candidate was sent to ("disk"/"gone" for chosen
    #: eviction victims, "mem"/"disk"/"gone" for ILP placements); None if
    #: the candidate was considered but left in place.
    chosen_state: str | None = None


class AuditEntry(NamedTuple):
    """One recorded decision.

    ``kind`` is ``"admit"``, ``"reject"``, or ``"ilp"``; ``reason`` names
    the branch that produced the outcome (``"free_space"``,
    ``"displaced"``, ``"admission"``, ``"no_victims"``, ``"too_big"``,
    ``"solve"``); ``outcome`` is where the subject ended up
    (``"memory"``, ``"disk"``, ``"drop"``, ``"solved"``).
    ``terms`` holds the scalar comparison terms as sorted name/value
    pairs (e.g. ``incoming_value`` vs ``displaced_value`` for Eq. 2
    admission, ``nodes_explored`` for ILP solves).
    """

    seq: int
    ts: float
    kind: str
    executor_id: int
    outcome: str
    reason: str
    rdd_id: int | None = None
    split: int | None = None
    size_bytes: float | None = None
    tenant: str | None = None
    terms: tuple[tuple[str, float], ...] = ()
    candidates: tuple[CandidateTerm, ...] = ()

    def term(self, name: str, default: float | None = None) -> float | None:
        for key, value in self.terms:
            if key == name:
                return value
        return default

    @property
    def victims(self) -> tuple[CandidateTerm, ...]:
        """The candidates this decision actually displaced or moved."""
        return tuple(c for c in self.candidates if c.chosen_state is not None)


def make_terms(**kwargs: float | None) -> tuple[tuple[str, float], ...]:
    """Build a sorted, None-filtered term tuple for an :class:`AuditEntry`."""
    return tuple(sorted((k, v) for k, v in kwargs.items() if v is not None))


class DecisionAudit:
    """The ring buffer cache managers record decisions into."""

    def __init__(self, ring_size: int = 4096) -> None:
        self._ring: deque[AuditEntry] = deque(maxlen=ring_size)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total_recorded(self) -> int:
        """Entries ever recorded (>= ``len(self)`` once the ring wraps)."""
        return self._seq

    @property
    def entries(self) -> tuple[AuditEntry, ...]:
        return tuple(self._ring)

    def record(
        self,
        *,
        ts: float,
        kind: str,
        executor_id: int,
        outcome: str,
        reason: str,
        rdd_id: int | None = None,
        split: int | None = None,
        size_bytes: float | None = None,
        tenant: str | None = None,
        terms: tuple[tuple[str, float], ...] = (),
        candidates: tuple[CandidateTerm, ...] = (),
    ) -> AuditEntry:
        entry = AuditEntry(
            seq=self._seq, ts=ts, kind=kind, executor_id=executor_id,
            outcome=outcome, reason=reason, rdd_id=rdd_id, split=split,
            size_bytes=size_bytes, tenant=tenant, terms=terms,
            candidates=candidates,
        )
        self._seq += 1
        self._ring.append(entry)
        return entry

    def explain(self, rdd_id: int, split: int) -> "ExplainAnswer":
        return explain_entries(self.entries, rdd_id, split)


@dataclass(frozen=True)
class ExplainAnswer:
    """Structured answer to "why is block (rdd, split) where it is?".

    ``as_subject`` holds the decisions *about* the block (its own
    admissions and rejections, newest last); ``as_victim`` the decisions
    that chose it as an eviction victim or ILP migration target.
    ``references`` is who still references the dataset *now* — the current
    application's stream, each parked one, the projected instance — read
    from the lineage when the question is asked (empty for managers
    without one): a partition with none never reaches an admission
    decision, which is the usual answer to "why was this not cached?".
    """

    rdd_id: int
    split: int
    as_subject: tuple[AuditEntry, ...]
    as_victim: tuple[AuditEntry, ...]
    references: "tuple[StreamReferences, ...]" = ()

    @property
    def found(self) -> bool:
        return bool(self.as_subject or self.as_victim)

    @property
    def last_decision(self) -> AuditEntry | None:
        """The most recent decision touching the block, either role."""
        merged = self.as_subject + self.as_victim
        return max(merged, key=lambda e: e.seq) if merged else None

    def summary(self) -> str:
        """Human-readable narrative of the block's decision history."""
        head = f"block rdd={self.rdd_id} split={self.split}:"
        if not self.found:
            head += " no audited decision touched this block (ring may have wrapped)"
            return "\n".join([head, *self._reference_lines()])
        lines = [head]
        for entry in sorted(self.as_subject + self.as_victim, key=lambda e: e.seq):
            if entry in self.as_victim:
                me = next(
                    c for c in entry.candidates
                    if c.rdd_id == self.rdd_id and c.split == self.split
                )
                what = f"chosen as {entry.kind} victim -> {me.chosen_state}"
                if entry.rdd_id is not None:
                    what += f" (displaced by rdd={entry.rdd_id} split={entry.split})"
                costs = ", ".join(
                    f"{name}={val:.6g}"
                    for name, val in (
                        ("cost_d", me.cost_d), ("cost_r", me.cost_r),
                        ("potential_cost", me.potential_cost),
                        ("last_access", me.last_access),
                    )
                    if val is not None
                )
                if costs:
                    what += f" [{costs}]"
                if me.tier is not None:
                    what += f" [quota tier {me.tier}]"
            else:
                what = f"{entry.kind} -> {entry.outcome} ({entry.reason})"
                terms = ", ".join(f"{k}={v:.6g}" for k, v in entry.terms)
                if terms:
                    what += f" [{terms}]"
                if entry.victims:
                    vs = ", ".join(f"({c.rdd_id},{c.split})" for c in entry.victims)
                    what += f" victims=[{vs}]"
            lines.append(
                f"  [seq {entry.seq} t={entry.ts:.6f} exec {entry.executor_id}] {what}"
            )
        return "\n".join(lines + self._reference_lines())

    def _reference_lines(self) -> list[str]:
        if not self.references:
            return []
        if not any(r.refs for r in self.references):
            return [
                "  0 future references in any open stream: nothing to cache it for"
                " (such a partition is dropped before any admission decision)"
            ]
        lines = [f"  future references: {sum(r.refs for r in self.references)}"]
        for r in self.references:
            where = "not started" if r.position[0] < 0 else "job %d, stage %d" % r.position
            then = f", next in its job {r.next_job}" if r.next_job is not None else ""
            lines.append(f"    {r.role} stream {r.stream!r} ({where}): {r.refs}{then}")
        return lines


def explain_entries(
    entries: tuple[AuditEntry, ...],
    rdd_id: int,
    split: int,
    references: "tuple[StreamReferences, ...]" = (),
) -> ExplainAnswer:
    """Query a snapshot of audit entries for one block's decision history."""
    as_subject = tuple(
        e for e in entries if e.rdd_id == rdd_id and e.split == split and e.kind != "ilp"
    )
    as_victim = tuple(
        e for e in entries
        if any(
            c.rdd_id == rdd_id and c.split == split and c.chosen_state is not None
            for c in e.candidates
        )
    )
    return ExplainAnswer(
        rdd_id=rdd_id, split=split, as_subject=as_subject, as_victim=as_victim,
        references=references,
    )
