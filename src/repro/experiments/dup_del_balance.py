"""Lemmas 6.6/6.7: the duplication/deletion/loss balance in steady state.

Lemma 6.6: in the steady state the duplication probability equals ℓ plus
the deletion probability (edge creation balances edge destruction).
Lemma 6.7: the duplication probability lies in ``[ℓ, ℓ+δ]``.

The experiment measures both probabilities over a steady-state window of
the actual protocol for several loss rates and reports the residual
``dup − (ℓ + del)``, alongside the degree-MC predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.tables import format_table


@dataclass
class BalanceRow:
    loss_rate: float
    duplication: float
    deletion: float
    residual: float           # dup − (ℓ + del); ≈ 0 by Lemma 6.6
    mc_duplication: float
    mc_deletion: float
    within_lemma_6_7: bool    # ℓ ≤ dup ≤ ℓ + δ


@dataclass
class DupDelResult:
    params: SFParams
    delta: float
    rows: List[BalanceRow] = field(default_factory=list)

    def max_residual(self) -> float:
        return max(abs(row.residual) for row in self.rows)

    def format(self) -> str:
        table_rows = [
            [
                row.loss_rate,
                f"{row.duplication:.4f}",
                f"{row.deletion:.4f}",
                f"{row.residual:+.4f}",
                f"{row.mc_duplication:.4f}",
                f"{row.mc_deletion:.4f}",
                row.within_lemma_6_7,
            ]
            for row in self.rows
        ]
        return format_table(
            ["loss", "dup (sim)", "del (sim)", "dup−(l+del)", "dup (MC)", "del (MC)", "in [l, l+δ]"],
            table_rows,
            title=(
                f"Lemmas 6.6/6.7 (dL={self.params.d_low}, s={self.params.view_size}, "
                f"δ={self.delta})"
            ),
        )


def points(
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    n: int = 300,
    params: SFParams = SFParams(view_size=40, d_low=18),
    delta: float = 0.01,
    warmup_rounds: float = 400.0,
    measure_rounds: float = 250.0,
    tolerance: float = 0.01,
    seed: int = 66,
) -> List[dict]:
    """One point per loss rate.

    ``tolerance`` loosens the Lemma 6.7 interval check to absorb sampling
    noise: the check is ``ℓ − tol ≤ dup ≤ ℓ + δ + tol``.  All loss rates
    share one simulation seed, so the rows differ by ℓ alone.
    """
    return [
        {
            "loss": loss,
            "n": n,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "delta": delta,
            "warmup_rounds": warmup_rounds,
            "measure_rounds": measure_rounds,
            "tolerance": tolerance,
            "seed": seed,
        }
        for loss in losses
    ]


def _aggregate(points: Sequence[dict], records: Sequence[BalanceRow]) -> DupDelResult:
    return DupDelResult(
        params=SFParams(view_size=points[0]["view_size"], d_low=points[0]["d_low"]),
        delta=points[0]["delta"],
        rows=list(records),
    )


@registry.experiment(
    "lemma-6.6",
    anchor="Lemmas 6.6/6.7 (§6.4, dup/del/loss balance)",
    description="steady-state duplication/deletion balance vs the MC prediction",
    points=points,
    fast=dict(losses=(0.0, 0.05), n=200, warmup_rounds=250.0, measure_rounds=100.0),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> BalanceRow:
    """Experiment cell: measure the balance at one loss rate."""
    from repro.experiments.common import build_sf_system, warm_up

    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss = point["loss"]
    delta = point["delta"]
    tolerance = point["tolerance"]
    protocol, engine = build_sf_system(
        point["n"], params, loss_rate=loss, seed=seed, backend=backend
    )
    warm_up(engine, point["warmup_rounds"])
    engine.run_rounds(point["measure_rounds"])
    dup = protocol.stats.duplication_probability()
    dele = protocol.stats.deletion_probability()
    solved = DegreeMarkovChain(params, loss_rate=loss).solve()
    return BalanceRow(
        loss_rate=loss,
        duplication=dup,
        deletion=dele,
        residual=dup - (loss + dele),
        mc_duplication=solved.duplication_probability,
        mc_deletion=solved.deletion_probability,
        within_lemma_6_7=(loss - tolerance <= dup <= loss + delta + tolerance),
    )
