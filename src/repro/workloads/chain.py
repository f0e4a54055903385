"""Chained-ETL workload: a data-plane-bound narrow-map pipeline.

Unlike the paper's iterative graph/ML workloads — whose per-iteration jobs
are dominated by shuffles and heavy per-element operators — this workload
models the ETL-style pattern of a cached source feeding long chains of
cheap one-to-one transformations (parse, enrich, filter, project), with
only the final projection consumed by an action.  None of the chain
intermediates is annotated and none has reuse, so the decision layer never
admits them: exactly the shape the fused execution layer
(:mod:`repro.dataflow.fusion`) collapses into single-pass pipelines.

It exists primarily as the data-plane benchmark cell (``chain_kernels``
in ``bench/``; decisions are deliberately cheap; the engine's
per-intermediate materialization overhead dominates), but it is a real
workload like any other: deterministic, system-independent results, and a
faithful virtual-cost story (every elided intermediate is still charged
and observed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import MiB
from ..dataflow.operators import OpCost, SizeModel
from .base import Workload, WorkloadResult, replace_params

if TYPE_CHECKING:  # pragma: no cover
    from ..dataflow.context import BlazeContext


@dataclass
class ChainWorkload(Workload):
    """Cached source -> per-iteration chains of narrow maps -> action.

    Each iteration re-reads the cached ``events`` dataset and pushes it
    through ``chain_depth - 2`` enrichment maps, one filter, and a final
    projection; the driver sums the projected values.  The per-element
    functions are intentionally trivial so wall-clock time measures the
    engine's data plane, not user code.
    """

    num_records: int = 1024
    num_partitions: int = 64
    chain_depth: int = 10
    iterations: int = 12
    record_bytes: float = 0.05 * MiB

    name = "chain"

    def scaled(self, fraction: float) -> "ChainWorkload":
        return replace_params(
            self,
            num_records=max(int(self.num_records * fraction), self.num_partitions),
        )

    # ------------------------------------------------------------------
    def run(self, ctx: "BlazeContext") -> WorkloadResult:
        per = max(self.num_records // self.num_partitions, 1)
        src = ctx.source(
            lambda split, rng: [
                ((split * 8191 + j) % 100003, float(j)) for j in range(per)
            ],
            self.num_partitions,
            op_cost=OpCost(per_element_out=1e-3),
            size_model=SizeModel(bytes_per_element=self.record_bytes),
            name="events",
        )
        src.cache()
        ctx.run_job(src, lambda _s, part: len(part))

        total = 0.0
        for i in range(self.iterations):
            r = src
            for d in range(self.chain_depth - 2):
                r = r.map(
                    lambda kv, d=d: (kv[0], kv[1] + d),
                    op_cost=OpCost(per_element_in=1e-4),
                    size_model=SizeModel(bytes_per_element=self.record_bytes),
                    name=f"stage{i}_{d}",
                )
            r = r.filter(
                lambda kv: kv[0] % 5 != 0,
                op_cost=OpCost(per_element_in=1e-4),
                size_model=SizeModel(bytes_per_element=self.record_bytes),
                name=f"keep{i}",
            )
            r = r.map(
                lambda kv: kv[1],
                op_cost=OpCost(per_element_in=1e-4),
                size_model=SizeModel(bytes_per_element=self.record_bytes),
                name=f"proj{i}",
            )
            total += sum(ctx.run_job(r, lambda _s, part: sum(part)))
        return WorkloadResult(
            name=self.name,
            iterations=self.iterations,
            final_value=total,
            extras={},
        )
