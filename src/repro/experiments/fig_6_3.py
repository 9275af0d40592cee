"""Figure 6.3 and the section 6.4 in-text table: degrees under loss.

Configuration from the paper: ``dL = 18, s = 40`` (the section 6.3 worked
example) and loss rates ``ℓ ∈ {0, 0.01, 0.05, 0.1}``; arbitrary ``n ≫ s``.

Reported rows (paper's in-text table): average indegree ± std =
28±3.4, 27±3.6, 24±4.1, 23±4.3.  Shape claims: the mean outdegree
decreases with loss but stays well above ``dL = 18``; the indegree
distribution remains concentrated (load balance, Property M2); the
outdegree variance shrinks with loss (Observation 6.5's premise).

Optionally overlays an S&F protocol simulation for each loss rate to
confirm the MC against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.tables import format_table


@dataclass
class LossRow:
    """Degree-MC summary for one loss rate."""

    loss_rate: float
    indegree_mean: float
    indegree_std: float
    outdegree_mean: float
    outdegree_std: float
    duplication: float
    deletion: float
    outdegree_pmf: Dict[int, float]
    indegree_pmf: Dict[int, float]
    simulated_indegree_mean: Optional[float] = None
    simulated_outdegree_mean: Optional[float] = None


@dataclass
class Fig63Result:
    params: SFParams
    rows: List[LossRow] = field(default_factory=list)

    def format(self) -> str:
        headers = [
            "loss",
            "indegree (mean±std)",
            "outdegree (mean±std)",
            "dup",
            "del",
            "sim indeg",
            "sim outdeg",
        ]
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.loss_rate,
                    f"{row.indegree_mean:.1f}±{row.indegree_std:.1f}",
                    f"{row.outdegree_mean:.1f}±{row.outdegree_std:.1f}",
                    f"{row.duplication:.4f}",
                    f"{row.deletion:.4f}",
                    "-" if row.simulated_indegree_mean is None
                    else f"{row.simulated_indegree_mean:.1f}",
                    "-" if row.simulated_outdegree_mean is None
                    else f"{row.simulated_outdegree_mean:.1f}",
                ]
            )
        title = (
            f"Figure 6.3 / section 6.4 table (dL={self.params.d_low}, "
            f"s={self.params.view_size}); paper: 28±3.4, 27±3.6, 24±4.1, 23±4.3"
        )
        return format_table(headers, table_rows, title=title)


def points(
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    params: SFParams = SFParams(view_size=40, d_low=18),
    simulate: bool = True,
    simulate_n: int = 300,
    simulate_rounds: Tuple[float, float] = (400.0, 150.0),
    seed: int = 2009,
) -> List[dict]:
    """One point per loss rate: the degree MC, optionally simulated.

    ``simulate_rounds`` is (warm-up rounds, measurement rounds).  All loss
    rates share one simulation seed, so the curves differ by ℓ alone and
    outputs are independent of ``jobs``.
    """
    return [
        {
            "loss": loss,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "simulate": simulate,
            "simulate_n": simulate_n,
            "warmup_rounds": simulate_rounds[0],
            "measure_rounds": simulate_rounds[1],
            "seed": seed,
        }
        for loss in losses
    ]


def _aggregate(points: Sequence[dict], records: Sequence[LossRow]) -> Fig63Result:
    return Fig63Result(
        params=SFParams(view_size=points[0]["view_size"], d_low=points[0]["d_low"]),
        rows=list(records),
    )


@registry.experiment(
    "fig-6.3",
    anchor="Fig 6.3 / §6.4 in-text table",
    description="degree distributions under loss (MC, optional simulation)",
    points=points,
    fast=dict(simulate=False, simulate_n=400, simulate_rounds=(600.0, 200.0)),
    aggregate=_aggregate,
    aliases=("table-6.4",),
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> LossRow:
    """Experiment cell: degree-MC row plus optional simulation overlay."""
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss = point["loss"]
    solved = DegreeMarkovChain(params, loss_rate=loss).solve()
    in_mean, in_std = solved.indegree_mean_std()
    out_mean, out_std = solved.outdegree_mean_std()
    row = LossRow(
        loss_rate=loss,
        indegree_mean=in_mean,
        indegree_std=in_std,
        outdegree_mean=out_mean,
        outdegree_std=out_std,
        duplication=solved.duplication_probability,
        deletion=solved.deletion_probability,
        outdegree_pmf=solved.outdegree_pmf,
        indegree_pmf=solved.indegree_pmf,
    )
    if point["simulate"]:
        row.simulated_indegree_mean, row.simulated_outdegree_mean = _simulate(
            params,
            loss,
            point["simulate_n"],
            (point["warmup_rounds"], point["measure_rounds"]),
            seed,
            backend,
        )
    return row


def _simulate(
    params: SFParams,
    loss: float,
    n: int,
    rounds: Tuple[float, float],
    seed: int,
    backend: str = "reference",
) -> Tuple[float, float]:
    import numpy as np

    from repro.experiments.common import build_sf_system, warm_up
    from repro.metrics.degrees import degree_summary

    protocol, engine = build_sf_system(
        n, params, loss_rate=loss, seed=seed, backend=backend
    )
    warm_up(engine, rounds[0])
    # Average degrees over several snapshots of the measurement window.
    snapshots = []
    for _ in range(8):
        engine.run_rounds(rounds[1] / 8)
        snapshots.append(degree_summary(protocol))
    return (
        float(np.mean([snap.indegree_mean for snap in snapshots])),
        float(np.mean([snap.outdegree_mean for snap in snapshots])),
    )
