"""Section 7.4's connectivity condition: sizing ``dL`` for ε-connectivity.

The paper's worked example: for ``ℓ = δ = 1%`` and ``ε = 10⁻³⁰``, ``dL``
should be at least 26.  The runner reproduces that row and sweeps loss
rates and failure targets, and (optionally) spot-checks by simulation
that steady-state S&F snapshots at the recommended ``dL`` stay weakly
connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.connectivity import (
    min_d_low_for_connectivity,
    partition_probability_bound,
)
from repro.core.params import SFParams
from repro.experiments import registry
from repro.util.tables import format_table


@dataclass
class ConnectivityResult:
    rows: List[Tuple[float, float, float, int, float]] = field(default_factory=list)
    simulated_connected_fraction: Optional[float] = None

    def lookup(self, loss: float, delta: float, epsilon: float) -> int:
        for row in self.rows:
            if row[0] == loss and row[1] == delta and row[2] == epsilon:
                return row[3]
        raise KeyError((loss, delta, epsilon))

    def format(self) -> str:
        table_rows = [
            [loss, delta, f"{epsilon:.0e}", d_low, f"{achieved:.2e}"]
            for loss, delta, epsilon, d_low, achieved in self.rows
        ]
        body = format_table(
            ["loss", "δ", "ε", "min dL", "achieved Pr"],
            table_rows,
            title="Section 7.4 connectivity sizing (paper example: 1%, 1%, 1e-30 → 26)",
        )
        if self.simulated_connected_fraction is not None:
            body += (
                f"\nsimulated steady-state snapshots weakly connected: "
                f"{self.simulated_connected_fraction:.3f}"
            )
        return body


def points(
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    deltas: Sequence[float] = (0.01,),
    epsilons: Sequence[float] = (1e-10, 1e-30),
    simulate: bool = True,
    simulate_n: int = 300,
    simulate_snapshots: int = 20,
    seed: int = 74,
) -> List[dict]:
    """One row point per (ℓ, δ, ε), plus an optional simulation point."""
    grid: List[dict] = [
        {"kind": "row", "loss": loss, "delta": delta, "epsilon": epsilon}
        for loss in losses
        for delta in deltas
        for epsilon in epsilons
    ]
    if simulate:
        grid.append(
            {
                "kind": "simulate",
                "n": simulate_n,
                "snapshots": simulate_snapshots,
                "seed": seed,
            }
        )
    return grid


def _aggregate(points: Sequence[dict], records: Sequence[object]) -> ConnectivityResult:
    result = ConnectivityResult()
    for point, record in zip(points, records):
        if point["kind"] == "row":
            result.rows.append(record)
        else:
            result.simulated_connected_fraction = record
    return result


@registry.experiment(
    "connectivity",
    anchor="§7.4 (connectivity condition / dL sizing)",
    description="minimal dL per (ℓ, δ, ε) with optional simulation spot-check",
    points=points,
    fast=dict(simulate=False),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: one sizing row, or the simulation spot-check."""
    if point["kind"] == "row":
        loss, delta, epsilon = point["loss"], point["delta"], point["epsilon"]
        d_low = min_d_low_for_connectivity(loss, delta, epsilon)
        achieved = partition_probability_bound(d_low, loss, delta)
        return (loss, delta, epsilon, d_low, achieved)
    return _simulate(point["n"], point["snapshots"], seed, backend)


def _simulate(n: int, snapshots: int, seed: int, backend: str = "reference") -> float:
    from repro.experiments.common import build_sf_system, warm_up

    params = SFParams(view_size=40, d_low=26)
    protocol, engine = build_sf_system(
        n, params, loss_rate=0.01, seed=seed, backend=backend
    )
    warm_up(engine, 200.0)
    connected = 0
    for _ in range(snapshots):
        engine.run_rounds(10.0)
        if protocol.export_graph().is_weakly_connected():
            connected += 1
    return connected / snapshots
