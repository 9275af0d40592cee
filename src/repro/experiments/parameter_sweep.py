"""Parameter-sensitivity sweep over (dL, s) — the §6.3 design space.

Section 6.3's rule picks one (dL, s) pair; this sweep maps the whole
neighborhood so the trade-offs behind the rule are visible:

* raising ``dL`` (with ``s`` fixed) raises the duplication probability —
  more loss-repair capacity but more dependence;
* raising ``s`` (with ``dL`` fixed) lowers the deletion probability —
  fewer discarded arrivals but slower per-entry turnover;
* the paper's "δ = 0.01 provides a good balance" claim corresponds to the
  diagonal where both probabilities sit near 1%.

Solved entirely with the degree MC — no simulation needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.tables import format_table


@dataclass
class SweepCell:
    d_low: int
    view_size: int
    expected_outdegree: float
    duplication: float
    deletion: float
    indegree_std: float


@dataclass
class ParameterSweepResult:
    loss_rate: float
    cells: List[SweepCell] = field(default_factory=list)

    def cell(self, d_low: int, view_size: int) -> SweepCell:
        for entry in self.cells:
            if entry.d_low == d_low and entry.view_size == view_size:
                return entry
        raise KeyError((d_low, view_size))

    def format(self) -> str:
        rows = [
            [
                cell.d_low,
                cell.view_size,
                f"{cell.expected_outdegree:.1f}",
                f"{cell.duplication:.4f}",
                f"{cell.deletion:.4f}",
                f"{cell.indegree_std:.2f}",
            ]
            for cell in self.cells
        ]
        return format_table(
            ["dL", "s", "dE", "dup", "del", "indeg std"],
            rows,
            title=f"(dL, s) sensitivity at l={self.loss_rate} (degree MC)",
        )


def points(
    d_lows: Sequence[int] = (10, 14, 18, 22, 26),
    view_sizes: Sequence[int] = (32, 40, 48),
    loss_rate: float = 0.01,
) -> List[dict]:
    """One point per feasible (dL, s) pair; each cell's solve is pure."""
    return [
        {"view_size": view_size, "d_low": d_low, "loss": loss_rate}
        for view_size in view_sizes
        for d_low in d_lows
        if d_low <= view_size - 6  # else infeasible per the parametrization
    ]


def _aggregate(
    points: Sequence[dict], records: Sequence[SweepCell]
) -> ParameterSweepResult:
    return ParameterSweepResult(loss_rate=points[0]["loss"], cells=list(records))


@registry.experiment(
    "parameter-sweep",
    anchor="§6.3 (parametrization rule design space)",
    description="(dL, s) sensitivity map via the degree MC",
    points=points,
    fast=dict(d_lows=(10, 18), view_sizes=(40,)),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> SweepCell:
    """Experiment cell: solve one (dL, s) point (pure function of its point)."""
    view_size, d_low = point["view_size"], point["d_low"]
    params = SFParams(view_size=view_size, d_low=d_low)
    solved = DegreeMarkovChain(params, loss_rate=point["loss"]).solve()
    _, in_std = solved.indegree_mean_std()
    return SweepCell(
        d_low=d_low,
        view_size=view_size,
        expected_outdegree=solved.expected_outdegree(),
        duplication=solved.duplication_probability,
        deletion=solved.deletion_probability,
        indegree_std=in_std,
    )


def duplication_along_d_low(
    result: ParameterSweepResult, view_size: int
) -> List[Tuple[int, float]]:
    """(dL, duplication) pairs at fixed s — should be increasing in dL."""
    return sorted(
        (cell.d_low, cell.duplication)
        for cell in result.cells
        if cell.view_size == view_size
    )


def deletion_along_view_size(
    result: ParameterSweepResult, d_low: int
) -> List[Tuple[int, float]]:
    """(s, deletion) pairs at fixed dL — should be decreasing in s."""
    return sorted(
        (cell.view_size, cell.deletion)
        for cell in result.cells
        if cell.d_low == d_low
    )
