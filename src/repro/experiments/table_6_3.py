"""Section 6.3: the threshold-selection rule and its worked example.

The paper's example row: ``d̂ = 30, δ = 0.01 → dL = 18, s = 40``.  The
runner applies :func:`repro.core.thresholds.select_thresholds` across a
sweep of target degrees and caps, reporting the selected thresholds and
achieved tail probabilities — a ready-to-use sizing table for deployers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.thresholds import ThresholdSelection, select_thresholds
from repro.experiments import registry
from repro.util.tables import format_table


@dataclass
class ThresholdTableResult:
    selections: List[ThresholdSelection] = field(default_factory=list)

    def lookup(self, d_hat: int, delta: float) -> ThresholdSelection:
        for selection in self.selections:
            if selection.d_hat == d_hat and selection.delta == delta:
                return selection
        raise KeyError(f"no selection for d_hat={d_hat}, delta={delta}")

    def format(self) -> str:
        rows = [
            [
                sel.d_hat,
                sel.delta,
                sel.d_low,
                sel.view_size,
                f"{sel.low_tail:.4f}",
                f"{sel.high_tail:.4f}",
            ]
            for sel in self.selections
        ]
        return format_table(
            ["d̂", "δ", "dL", "s", "Pr(d≤dL)", "Pr(d>s)"],
            rows,
            title="Section 6.3 threshold selection (paper example: 30, 0.01 → 18, 40)",
        )


def points(
    d_hats: Sequence[int] = (10, 20, 30, 40, 50),
    deltas: Sequence[float] = (0.05, 0.01, 0.001),
) -> List[dict]:
    """One point per (target degree d̂, tail cap δ) pair."""
    return [
        {"d_hat": d_hat, "delta": delta} for d_hat in d_hats for delta in deltas
    ]


@registry.experiment(
    "table-6.3",
    anchor="Table 6.3 / §6.3 (threshold-selection rule)",
    description="threshold selection across target degrees and tail caps",
    points=points,
    fast=dict(d_hats=(30,)),
    aggregate=lambda points, records: ThresholdTableResult(selections=list(records)),
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: one (d̂, δ) selection, ``None`` if unsatisfiable."""
    try:
        return select_thresholds(point["d_hat"], point["delta"])
    except ValueError:
        return None  # unsatisfiable corner (tiny d̂ with tight δ)
