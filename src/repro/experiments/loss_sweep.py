"""Fine-grained loss sweep: quantifying Lemma 6.4 and its consequences.

The paper proves the expected outdegree *decreases* with increasing loss
(Lemma 6.4) and argues it nevertheless stays "significantly above dL".
This sweep solves the degree MC on a fine loss grid and reports, per ℓ:

* expected outdegree dE and its margin over dL;
* duplication and deletion probabilities (the Lemma 6.6 balance);
* the α lower bound and dependence-MC stationary value;
* the expected-conductance lower bound Φ (Lemma 7.14) — how much loss
  erodes the mixing guarantee.

It is the quantitative "operating envelope" a deployer would consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.independence import (
    dependence_stationary_exact,
    independence_lower_bound,
)
from repro.analysis.temporal import expected_conductance_bound
from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.tables import format_table


@dataclass
class LossSweepRow:
    loss_rate: float
    expected_outdegree: float
    margin_over_d_low: float
    duplication: float
    deletion: float
    alpha_bound: float
    dependence_exact: float
    conductance_bound: float


@dataclass
class LossSweepResult:
    params: SFParams
    delta: float
    rows: List[LossSweepRow] = field(default_factory=list)

    def format(self) -> str:
        table_rows = [
            [
                f"{row.loss_rate:.3f}",
                f"{row.expected_outdegree:.2f}",
                f"{row.margin_over_d_low:.2f}",
                f"{row.duplication:.4f}",
                f"{row.deletion:.4f}",
                f"{row.alpha_bound:.3f}",
                f"{row.dependence_exact:.4f}",
                f"{row.conductance_bound:.4f}",
            ]
            for row in self.rows
        ]
        return format_table(
            ["loss", "dE", "dE−dL", "dup", "del", "α bound", "dep (exact)", "Φ bound"],
            table_rows,
            title=(
                f"Loss sweep (dL={self.params.d_low}, s={self.params.view_size}, "
                f"δ={self.delta}): the operating envelope"
            ),
        )

    def outdegrees(self) -> List[float]:
        return [row.expected_outdegree for row in self.rows]


#: Default loss grid (the paper-relevant operating range).
DEFAULT_LOSSES = (0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2)


def points(
    losses: Sequence[float] = DEFAULT_LOSSES,
    params: SFParams = SFParams(view_size=40, d_low=18),
    delta: float = 0.01,
) -> List[dict]:
    """One point per loss rate; each row is a pure function of its point."""
    return [
        {
            "loss": loss,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "delta": delta,
        }
        for loss in losses
    ]


def _aggregate(
    points: Sequence[dict], records: Sequence[LossSweepRow]
) -> LossSweepResult:
    return LossSweepResult(
        params=SFParams(
            view_size=points[0]["view_size"], d_low=points[0]["d_low"]
        ),
        delta=points[0]["delta"],
        rows=list(records),
    )


@registry.experiment(
    "loss-sweep",
    anchor="Lemma 6.4 / §6.4 (operating envelope)",
    description="fine-grained loss sweep of the degree MC and §7 bounds",
    points=points,
    fast=dict(losses=(0.0, 0.01, 0.05, 0.1)),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> LossSweepRow:
    """Experiment cell: the full per-ℓ row (pure function of its point)."""
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    delta = point["delta"]
    loss = point["loss"]
    solved = DegreeMarkovChain(params, loss_rate=loss).solve()
    d_e = solved.expected_outdegree()
    alpha = independence_lower_bound(loss, delta)
    conductance = (
        expected_conductance_bound(d_e, params.view_size, alpha)
        if alpha > 0.0 and d_e > 1.0
        else 0.0
    )
    return LossSweepRow(
        loss_rate=loss,
        expected_outdegree=d_e,
        margin_over_d_low=d_e - params.d_low,
        duplication=solved.duplication_probability,
        deletion=solved.deletion_probability,
        alpha_bound=alpha,
        dependence_exact=dependence_stationary_exact(loss, delta),
        conductance_bound=conductance,
    )
