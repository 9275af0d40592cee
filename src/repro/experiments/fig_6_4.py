"""Figure 6.4: decay of a departed node's id instances (section 6.5.2).

The paper plots the Lemma 6.10 *upper bound* on the probability that an
id instance of a left/failed node remains in some view, for
``δ = 0.01, dL = 18, s = 40`` and ``ℓ ∈ {0, 0.01, 0.05, 0.1}``, over 500
rounds.  Shape claims: the curves for different loss rates almost
coincide (the decay rate is "almost unaffected by loss"), and fewer than
50% of instances survive after ~70 rounds... for the *bound*; the actual
protocol decays at least that fast.

This runner computes the bound curves and (optionally) overlays a
simulated survival curve: a batch of nodes leaves a steady-state system
and the surviving instances of their ids are counted each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.decay import half_life_rounds, survival_curve
from repro.core.params import SFParams
from repro.experiments import registry
from repro.metrics.degrees import id_instance_count
from repro.util.tables import format_series


@dataclass
class Fig64Result:
    params: SFParams
    delta: float
    rounds: List[int]
    bound_curves: Dict[float, List[float]] = field(default_factory=dict)
    simulated_curves: Dict[float, List[float]] = field(default_factory=dict)

    def half_lives(self) -> Dict[float, float]:
        return {
            loss: half_life_rounds(
                self.params.d_low, self.params.view_size, loss, self.delta
            )
            for loss in self.bound_curves
        }

    def format(self) -> str:
        series = {
            f"bound l={loss}": curve for loss, curve in self.bound_curves.items()
        }
        for loss, curve in self.simulated_curves.items():
            series[f"sim l={loss}"] = curve
        title = (
            f"Figure 6.4: survival of a departed id "
            f"(dL={self.params.d_low}, s={self.params.view_size}, δ={self.delta})"
        )
        body = format_series(series, "round", self.rounds, title=title)
        half = ", ".join(
            f"l={loss}: {rounds:.0f}" for loss, rounds in self.half_lives().items()
        )
        return f"{body}\n50% bound crossings (rounds): {half}"


def _rounds(point: dict) -> List[int]:
    return list(range(0, point["max_round"] + 1, point["step"]))


def points(
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    params: SFParams = SFParams(view_size=40, d_low=18),
    delta: float = 0.01,
    max_round: int = 500,
    step: int = 25,
    simulate: bool = True,
    simulate_n: int = 300,
    simulate_leavers: int = 20,
    warmup_rounds: float = 200.0,
    seed: int = 64,
) -> List[dict]:
    """One point per loss rate: the Lemma 6.10 curve, optionally simulated.

    All loss rates share one simulation seed, so the curves differ by ℓ
    alone and outputs are independent of ``jobs``.
    """
    return [
        {
            "loss": loss,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "delta": delta,
            "max_round": max_round,
            "step": step,
            "simulate": simulate,
            "simulate_n": simulate_n,
            "simulate_leavers": simulate_leavers,
            "warmup_rounds": warmup_rounds,
            "seed": seed,
        }
        for loss in losses
    ]


def _aggregate(points: Sequence[dict], records: Sequence[object]) -> Fig64Result:
    first = points[0]
    result = Fig64Result(
        params=SFParams(view_size=first["view_size"], d_low=first["d_low"]),
        delta=first["delta"],
        rounds=_rounds(first),
    )
    for point, (bound, simulated) in zip(points, records):
        result.bound_curves[point["loss"]] = bound
        if simulated is not None:
            result.simulated_curves[point["loss"]] = simulated
    return result


@registry.experiment(
    "fig-6.4",
    anchor="Fig 6.4 / Lemma 6.10 (§6.5.2)",
    description="decay of departed-id instances: bound curves vs simulation",
    points=points,
    fast=dict(
        max_round=200, step=50, simulate=False, simulate_n=400, warmup_rounds=300.0
    ),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: Lemma 6.10 bound curve plus optional simulated decay."""
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss = point["loss"]
    rounds = _rounds(point)
    bound = survival_curve(
        rounds, params.d_low, params.view_size, loss, point["delta"]
    )
    simulated = (
        _simulate_decay(
            params,
            loss,
            rounds,
            point["simulate_n"],
            point["simulate_leavers"],
            point["warmup_rounds"],
            seed,
            backend,
        )
        if point["simulate"]
        else None
    )
    return bound, simulated


def _simulate_decay(
    params: SFParams,
    loss: float,
    rounds: Sequence[int],
    n: int,
    leavers: int,
    warmup_rounds: float,
    seed: int,
    backend: str = "reference",
) -> List[float]:
    from repro.experiments.common import build_sf_system, warm_up

    protocol, engine = build_sf_system(
        n, params, loss_rate=loss, seed=seed, backend=backend
    )
    warm_up(engine, warmup_rounds)
    victims = protocol.node_ids()[:leavers]
    for victim in victims:
        protocol.remove_node(victim)
    initial = sum(id_instance_count(protocol, v) for v in victims)
    if initial == 0:
        raise RuntimeError("victims had no id instances at departure")
    curve: List[float] = []
    elapsed = 0
    for target in rounds:
        if target > elapsed:
            engine.run_rounds(target - elapsed)
            elapsed = target
        surviving = sum(id_instance_count(protocol, v) for v in victims)
        curve.append(surviving / initial)
    return curve
