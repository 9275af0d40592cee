"""Adversarial loss: §4.1's i.i.d. assumption, deliberately violated.

The paper proves its degree/connectivity results under uniform i.i.d.
message loss (§4.1).  This experiment runs the same S&F system under
four loss regimes of matched nominal intensity and compares what
actually degrades:

* **uniform** — the paper's model (control);
* **targeted** — an adversary silencing a victim set's traffic
  (:class:`~repro.net.loss.TargetedLoss`, the targeted-edge adversary
  of the rumor-spreading literature);
* **correlated** — system-wide loss waves
  (:class:`~repro.net.loss.CorrelatedLoss`), violating spatial
  independence;
* **topology** — a ring admission mask
  (:class:`~repro.net.loss.TopologyLoss`), so gossip no longer runs
  over a complete graph.

The cells are backend-sensitive on purpose: stateless regimes ride the
kernels' fused pre-drawn-uniform fast path, the stateful correlated
regime the in-order path, and the kernel-equivalence suite keeps both
bit-exact against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.params import SFParams
from repro.experiments import registry
from repro.experiments.common import build_sf_system, warm_up
from repro.net.loss import (
    CorrelatedLoss,
    LossModel,
    TargetedLoss,
    TopologyLoss,
    UniformLoss,
)
from repro.util.tables import format_table

#: Victim-set size for the targeted regime; mask half-width for topology.
VICTIMS = 6
MASK_HALF_WIDTH = 4


def _make_model(regime: str, point: dict) -> LossModel:
    n = point["n"]
    rate = point["rate"]
    if regime == "uniform":
        return UniformLoss(rate)
    if regime == "targeted":
        # Victims' traffic is near-silenced; background sees light loss.
        return TargetedLoss(
            victims=range(VICTIMS), victim_loss=0.9, base_loss=0.05
        )
    if regime == "correlated":
        # One cycle ≈ one round of sends; the first quarter is a full
        # outage, matching the uniform regime's nominal rate.
        return CorrelatedLoss(period=n, burst=max(1, int(n * rate)), burst_loss=1.0)
    if regime == "topology":
        neighbors = {
            u: frozenset(
                (u + k) % n
                for k in range(-MASK_HALF_WIDTH, MASK_HALF_WIDTH + 1)
                if k != 0
            )
            for u in range(n)
        }
        return TopologyLoss(neighbors, edge_loss=0.05)
    raise ValueError(f"unknown loss regime {regime!r}")


@dataclass
class AdversarialLossRecord:
    """One regime's outcome."""

    regime: str
    nominal_rate: float
    realized_rate: float
    mean_outdegree: float
    min_outdegree: int
    min_indegree: int
    victim_mean_indegree: Optional[float]
    other_mean_indegree: float
    weakly_connected: bool
    invariant_ok: bool


@dataclass
class AdversarialLossResult:
    """All regimes side by side."""

    n: int
    view_size: int
    d_low: int
    rows: List[AdversarialLossRecord]

    def all_invariants_hold(self) -> bool:
        """Observation 5.1 must survive every regime — loss is loss."""
        return all(row.invariant_ok for row in self.rows)

    def format(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.regime,
                    f"{row.nominal_rate:.2f}",
                    f"{row.realized_rate:.3f}",
                    f"{row.mean_outdegree:.2f}",
                    row.min_outdegree,
                    row.min_indegree,
                    "-"
                    if row.victim_mean_indegree is None
                    else f"{row.victim_mean_indegree:.2f}",
                    f"{row.other_mean_indegree:.2f}",
                    str(row.weakly_connected),
                    str(row.invariant_ok),
                ]
            )
        return format_table(
            [
                "regime",
                "nominal",
                "realized",
                "mean outdeg",
                "min outdeg",
                "min indeg",
                "victim indeg",
                "other indeg",
                "connected",
                "invariant",
            ],
            table_rows,
            title=(
                f"Loss regimes beyond §4.1 (n={self.n}, s={self.view_size}, "
                f"dL={self.d_low})"
            ),
        )


def points(n: int = 60, rounds: int = 150) -> List[dict]:
    """One point per loss regime at matched nominal intensity."""
    base = {
        "view_size": 12,
        "d_low": 4,
        "rate": 0.25,
        "warm_rounds": 20,
        "rounds": rounds,
        "n": n,
    }
    return [
        dict(base, regime=regime, seed=20260808 + i)
        for i, regime in enumerate(("uniform", "targeted", "correlated", "topology"))
    ]


def _aggregate(points, records) -> AdversarialLossResult:
    first = points[0]
    return AdversarialLossResult(
        n=first["n"],
        view_size=first["view_size"],
        d_low=first["d_low"],
        rows=list(records),
    )


@registry.experiment(
    "adversarial-loss",
    anchor="§4.1 loss model, adversarially violated (targeted/correlated/topology)",
    description="uniform vs targeted vs correlated vs topology-masked loss, matched intensity",
    points=points,
    fast=dict(n=30, rounds=60),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> AdversarialLossRecord:
    """One regime: mix, run, read degrees/connectivity/invariants."""
    regime = point["regime"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    model = _make_model(regime, point)
    protocol, engine = build_sf_system(
        point["n"], params, seed=seed, loss_model=model, backend=backend
    )
    warm_up(engine, point["warm_rounds"])
    engine.run_rounds(point["rounds"])
    engine.stats.check_conservation()

    outdegrees = {
        u: sum(protocol.view_of(u).values()) for u in protocol.node_ids()
    }
    indegrees: Dict[int, int] = protocol.indegrees()
    victims = set(range(VICTIMS)) if regime == "targeted" else set()
    others = [u for u in outdegrees if u not in victims]
    victim_mean = (
        sum(indegrees.get(u, 0) for u in victims) / len(victims)
        if victims
        else None
    )
    try:
        protocol.check_invariant()
        invariant_ok = True
    except AssertionError:
        invariant_ok = False
    return AdversarialLossRecord(
        regime=regime,
        nominal_rate=point["rate"],
        realized_rate=engine.stats.loss_fraction(),
        mean_outdegree=sum(outdegrees.values()) / len(outdegrees),
        min_outdegree=min(outdegrees.values()),
        min_indegree=min(indegrees.get(u, 0) for u in outdegrees),
        victim_mean_indegree=victim_mean,
        other_mean_indegree=(
            sum(indegrees.get(u, 0) for u in others) / len(others)
        ),
        weakly_connected=protocol.export_graph().is_weakly_connected(),
        invariant_ok=invariant_ok,
    )
