"""Lemma 7.15 / Property M5: temporal independence.

Two parts:

* **bound values** — τε per Lemma 7.15 for representative system sizes,
  reported as actions per node (the O(s·log n) headline) and the
  O(log² n) reading for logarithmic views;
* **empirical decay** — a steady-state system is snapshotted and the
  overlap between current and snapshot views is tracked; the excess over
  the i.i.d. baseline should decay toward zero within a small multiple of
  ``s·log n`` rounds, and faster decorrelation should *not* be destroyed
  by moderate loss (α stays bounded away from zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.independence import independence_lower_bound
from repro.analysis.temporal import actions_per_node_bound
from repro.core.params import SFParams
from repro.experiments import registry
from repro.util.tables import format_series, format_table


@dataclass
class TemporalBoundsResult:
    rows: List[Tuple[int, int, float, float]]  # (n, s, alpha, actions/node)

    def format(self) -> str:
        table_rows = [
            [n, s, f"{alpha:.2f}", f"{bound:.3g}", f"{bound / (s * math.log(n)):.3g}"]
            for n, s, alpha, bound in self.rows
        ]
        return format_table(
            ["n", "s", "α", "τε/n (actions per node)", "/(s·ln n)"],
            table_rows,
            title="Lemma 7.15 bounds: τε/n = O(s·log n) for constant α, ε",
        )


def run_bounds(
    sizes: Sequence[int] = (10**3, 10**4, 10**5, 10**6),
    epsilon: float = 0.01,
    losses: Sequence[float] = (0.0, 0.01),
    delta: float = 0.01,
) -> TemporalBoundsResult:
    """τε/n for logarithmic view sizes across system sizes and loss rates."""
    rows: List[Tuple[int, int, float, float]] = []
    for n in sizes:
        s = max(6, 2 * math.ceil(math.log2(n) / 2))
        expected_outdegree = max(2.0, (2.0 / 3.0) * s)
        for loss in losses:
            alpha = independence_lower_bound(loss, delta)
            bound = actions_per_node_bound(n, s, expected_outdegree, alpha, epsilon)
            rows.append((n, s, alpha, bound))
    return TemporalBoundsResult(rows=rows)


@dataclass
class TemporalDecayResult:
    n: int
    params: SFParams
    rounds: List[float]
    curves: Dict[float, List[float]] = field(default_factory=dict)
    iid_baseline: float = 0.0
    reference_rounds: float = 0.0  # s·log n, the bound's scale

    def decorrelation_round(self, loss: float, threshold: float = 0.05) -> float:
        """First sampled round where excess overlap drops below threshold."""
        for x, y in zip(self.rounds, self.curves[loss]):
            if y - self.iid_baseline < threshold:
                return x
        return math.inf

    def format(self) -> str:
        series = {f"l={loss}": curve for loss, curve in self.curves.items()}
        body = format_series(
            series,
            "round",
            [int(r) for r in self.rounds],
            title=(
                f"Property M5 decay (n={self.n}, s={self.params.view_size}); "
                f"iid baseline≈{self.iid_baseline:.3f}, s·ln n≈{self.reference_rounds:.0f}"
            ),
        )
        crossings = ", ".join(
            f"l={loss}: {self.decorrelation_round(loss):.0f}" for loss in self.curves
        )
        return f"{body}\n5%-excess crossings (rounds): {crossings}"


@dataclass
class TemporalBundle:
    """Bounds table plus empirical decay curves, reported together."""

    bounds: TemporalBoundsResult
    decay: TemporalDecayResult

    def format(self) -> str:
        return f"{self.bounds.format()}\n\n{self.decay.format()}"


def points(
    n: int = 300,
    params: SFParams = SFParams(view_size=16, d_low=6),
    losses: Sequence[float] = (0.0, 0.05),
    max_rounds: int = 200,
    sample_every: int = 10,
    warmup_rounds: float = 150.0,
    seed: int = 715,
) -> List[dict]:
    """The bounds-table point, then one overlap-decay point per loss rate.

    All loss rates share one simulation seed, so the curves differ by ℓ
    alone.
    """
    bounds = {
        "kind": "bounds",
        "sizes": [10**3, 10**4, 10**5, 10**6],
        "epsilon": 0.01,
        "losses": [0.0, 0.01],
        "delta": 0.01,
    }
    return [bounds] + [
        {
            "kind": "decay",
            "loss": loss,
            "n": n,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "max_rounds": max_rounds,
            "sample_every": sample_every,
            "warmup_rounds": warmup_rounds,
            "seed": seed,
        }
        for loss in losses
    ]


def _assemble_decay(cells: List[Tuple[dict, tuple]]) -> TemporalDecayResult:
    """Rebuild the decay result from per-loss ``(point, record)`` cells."""
    first = cells[0][0]
    result = TemporalDecayResult(
        n=first["n"],
        params=SFParams(view_size=first["view_size"], d_low=first["d_low"]),
        rounds=[],
        reference_rounds=first["view_size"] * math.log(first["n"]),
    )
    for point, (xs, ys, iid) in cells:
        result.rounds = xs
        result.curves[point["loss"]] = ys
        # One baseline is reported: the last loss rate's.
        result.iid_baseline = iid
    return result


def _aggregate(points: List[dict], records: List[object]) -> TemporalBundle:
    cells: Dict[str, list] = {"bounds": [], "decay": []}
    for point, record in zip(points, records):
        cells[point["kind"]].append((point, record))
    if not (cells["bounds"] and cells["decay"]):
        raise RuntimeError("no bounds table or no decay curve to report")
    return TemporalBundle(
        bounds=cells["bounds"][0][1], decay=_assemble_decay(cells["decay"])
    )


@registry.experiment(
    "lemma-7.15",
    anchor="Lemma 7.15 / Property M5 (§7.5, temporal independence)",
    description="τε bounds per system size plus empirical overlap decay",
    points=points,
    fast=dict(n=150, max_rounds=120, sample_every=20),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: the bounds table, or one loss rate's decay curve."""
    if point["kind"] == "bounds":
        return run_bounds(
            sizes=tuple(point["sizes"]),
            epsilon=point["epsilon"],
            losses=tuple(point["losses"]),
            delta=point["delta"],
        )
    from repro.experiments.common import build_sf_system, warm_up
    from repro.metrics.convergence import temporal_decorrelation_series

    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    protocol, engine = build_sf_system(
        n, params, loss_rate=point["loss"], seed=seed, init_outdegree=10,
        backend=backend,
    )
    warm_up(engine, point["warmup_rounds"])
    xs, ys = temporal_decorrelation_series(
        engine, point["max_rounds"], point["sample_every"]
    )
    mean_out = sum(
        protocol.outdegree(u) for u in protocol.node_ids()
    ) / len(protocol.node_ids())
    return xs, ys, mean_out / n
