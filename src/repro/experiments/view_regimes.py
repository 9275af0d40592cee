"""Property M1: S&F works with constant *and* logarithmic view sizes.

Section 6.3 concludes that "even constant-size (in the system size n)
views are sufficient for the protocol to function properly"; section 2
notes logarithmic views are the common choice for fast dissemination.
This experiment runs S&F across a range of system sizes under both
regimes — ``s`` fixed vs ``s = Θ(log n)`` — and verifies, at every size:

* the overlay stays weakly connected with a healthy (logarithmic-ish)
  diameter;
* the degree profile matches the (n-independent) degree MC;
* the dup/del balance (Lemma 6.6) holds regardless of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.tables import format_table


@dataclass
class RegimeRow:
    regime: str
    n: int
    view_size: int
    d_low: int
    outdegree_mean: float
    mc_outdegree_mean: float
    connected: bool
    diameter: Optional[int]
    dup_minus_loss_del: float


@dataclass
class ViewRegimesResult:
    loss_rate: float
    rows: List[RegimeRow] = field(default_factory=list)

    def rows_for(self, regime: str) -> List[RegimeRow]:
        return [row for row in self.rows if row.regime == regime]

    def format(self) -> str:
        table_rows = [
            [
                row.regime,
                row.n,
                row.view_size,
                row.d_low,
                f"{row.outdegree_mean:.1f}",
                f"{row.mc_outdegree_mean:.1f}",
                row.connected,
                row.diameter if row.diameter is not None else "-",
                f"{row.dup_minus_loss_del:+.4f}",
            ]
            for row in self.rows
        ]
        return format_table(
            ["regime", "n", "s", "dL", "outdeg", "MC outdeg", "connected",
             "diameter", "dup−(l+del)"],
            table_rows,
            title=f"Property M1 — constant vs logarithmic views (l={self.loss_rate})",
        )


def _log_params(n: int) -> SFParams:
    """``s ≈ 2·log₂ n`` rounded even, with ``dL`` at half of s (even)."""
    s = max(10, 2 * math.ceil(math.log2(n)))
    if s % 2 != 0:
        s += 1
    d_low = (s // 2) & ~1
    d_low = min(d_low, s - 6)
    return SFParams(view_size=s, d_low=d_low)


def points(
    sizes: Sequence[int] = (100, 400, 1600),
    constant_params: SFParams = SFParams(view_size=16, d_low=6),
    loss_rate: float = 0.01,
    warmup_rounds: float = 150.0,
    measure_rounds: float = 100.0,
    seed: int = 93,
) -> List[dict]:
    """Two points per size: the constant-view and logarithmic-view regimes.

    All (regime, n) plans share one simulation seed, so rows differ by
    the plan alone.
    """
    plans: List[Tuple[str, int, SFParams]] = []
    for n in sizes:
        plans.append(("constant", n, constant_params))
        plans.append(("logarithmic", n, _log_params(n)))
    return [
        {
            "regime": regime,
            "n": n,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "loss": loss_rate,
            "warmup_rounds": warmup_rounds,
            "measure_rounds": measure_rounds,
            "seed": seed,
        }
        for regime, n, params in plans
    ]


def _aggregate(
    points: Sequence[dict], records: Sequence[RegimeRow]
) -> ViewRegimesResult:
    return ViewRegimesResult(loss_rate=points[0]["loss"], rows=list(records))


@registry.experiment(
    "view-regimes",
    anchor="Property M1 / §6.3 (constant vs logarithmic views)",
    description="S&F health across system sizes under both view-size regimes",
    points=points,
    fast=dict(sizes=(100, 400), warmup_rounds=100.0, measure_rounds=60.0),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> RegimeRow:
    """Experiment cell: one (regime, n) plan against the degree MC."""
    from repro.experiments.common import build_sf_system, warm_up
    from repro.metrics.graph_stats import graph_statistics

    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss_rate = point["loss"]
    solved = DegreeMarkovChain(params, loss_rate=loss_rate).solve()

    protocol, engine = build_sf_system(
        n, params, loss_rate=loss_rate, seed=seed, backend=backend
    )
    warm_up(engine, point["warmup_rounds"])
    engine.run_rounds(point["measure_rounds"])
    outdegree_mean = float(
        np.mean([protocol.outdegree(u) for u in protocol.node_ids()])
    )
    dup = protocol.stats.duplication_probability()
    dele = protocol.stats.deletion_probability()
    stats = graph_statistics(protocol, compute_diameter=n <= 2000)
    return RegimeRow(
        regime=point["regime"],
        n=n,
        view_size=params.view_size,
        d_low=params.d_low,
        outdegree_mean=outdegree_mean,
        mc_outdegree_mean=solved.expected_outdegree(),
        connected=stats.weakly_connected,
        diameter=stats.undirected_diameter,
        dup_minus_loss_del=dup - (loss_rate + dele),
    )
