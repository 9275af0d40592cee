"""Lemma 7.9 / Property M4: spatial independence under loss.

Measures the empirical dependent-entry fraction of a steady-state S&F
system (duplication-provenance labels plus self-edges and in-view
duplicates) and compares it with:

* the paper's bound ``1 − α ≤ 2(ℓ+δ)``;
* the un-simplified dependence-MC stationary value;
* the finite-``n`` i.i.d. duplicate floor (even perfectly independent
  uniform views of size ``d`` over ``n`` ids collide within a view at rate
  ≈ ``(d−1)/(2n)`` per entry — the paper's asymptotic ``n ≫ s`` setting
  makes this vanish; at simulation sizes it is visible and reported).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.independence import (
    dependence_stationary_exact,
    independence_lower_bound,
)
from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.dependence_mc import DependenceMarkovChain
from repro.util.tables import format_table


@dataclass
class IndependenceRow:
    loss_rate: float
    delta: float
    dependent_fraction: float
    bound: float                 # 2(ℓ+δ)
    mc_stationary: float         # dependence-MC dependent mass
    iid_duplicate_floor: float
    within_bound: bool


@dataclass
class IndependenceResult:
    params: SFParams
    n: int
    rows: List[IndependenceRow] = field(default_factory=list)

    def format(self) -> str:
        table_rows = [
            [
                row.loss_rate,
                f"{row.dependent_fraction:.4f}",
                f"{row.bound:.4f}",
                f"{row.mc_stationary:.4f}",
                f"{row.iid_duplicate_floor:.4f}",
                row.within_bound,
            ]
            for row in self.rows
        ]
        return format_table(
            ["loss", "dep frac (sim)", "2(l+δ) bound", "dep-MC π", "iid floor", "sim ≤ bound+floor"],
            table_rows,
            title=(
                f"Lemma 7.9 (n={self.n}, dL={self.params.d_low}, "
                f"s={self.params.view_size}): α ≥ 1 − 2(l+δ)"
            ),
        )


def points(
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    n: int = 600,
    params: SFParams = SFParams(view_size=40, d_low=18),
    delta: float = 0.01,
    warmup_rounds: float = 300.0,
    measure_rounds: float = 100.0,
    seed: int = 79,
) -> List[dict]:
    """One point per loss rate.

    All loss rates share one simulation seed, so the rows differ by ℓ
    alone and outputs are independent of ``jobs``.
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
            "seed": seed,
        }
        for loss in losses
    ]


def _aggregate(
    points: Sequence[dict], records: Sequence[IndependenceRow]
) -> IndependenceResult:
    return IndependenceResult(
        params=SFParams(view_size=points[0]["view_size"], d_low=points[0]["d_low"]),
        n=points[0]["n"],
        rows=list(records),
    )


@registry.experiment(
    "lemma-7.9",
    anchor="Lemma 7.9 / Property M4 (§7.4)",
    description="spatial independence: dependent-entry fraction vs the α bound",
    points=points,
    fast=dict(losses=(0.0, 0.05), n=300, warmup_rounds=200.0, measure_rounds=60.0),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> IndependenceRow:
    """Experiment cell: simulate one loss rate and compare with the bound."""
    import numpy as np

    from repro.experiments.common import build_sf_system, warm_up

    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    delta = point["delta"]
    loss = point["loss"]
    measure_rounds = point["measure_rounds"]
    protocol, engine = build_sf_system(
        n, params, loss_rate=loss, seed=seed, backend=backend
    )
    warm_up(engine, point["warmup_rounds"])
    fractions = []
    snapshots = 5
    for _ in range(snapshots):
        engine.run_rounds(measure_rounds / snapshots)
        fractions.append(protocol.dependent_fraction())
    dep = float(np.mean(fractions))
    mean_out = float(
        np.mean([protocol.outdegree(u) for u in protocol.node_ids()])
    )
    floor = max(0.0, (mean_out - 1.0) / (2.0 * n))
    bound = 1.0 - independence_lower_bound(loss, delta)
    mc = DependenceMarkovChain(loss, delta).stationary_dependent_fraction()
    return IndependenceRow(
        loss_rate=loss,
        delta=delta,
        dependent_fraction=dep,
        bound=bound,
        mc_stationary=mc,
        iid_duplicate_floor=floor,
        within_bound=dep <= bound + floor + 0.01,
    )


def bound_table(
    losses: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1), delta: float = 0.01
) -> str:
    """The closed-form α bounds of section 7.4, for reporting."""
    rows = []
    for loss in losses:
        rows.append(
            [
                loss,
                f"{independence_lower_bound(loss, delta):.4f}",
                f"{1.0 - dependence_stationary_exact(loss, delta):.4f}",
            ]
        )
    return format_table(
        ["loss", "α ≥ 1−2(l+δ)", "α (exact MC algebra)"],
        rows,
        title=f"Section 7.4 independence bounds (δ={delta})",
    )
