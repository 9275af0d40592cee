"""Section 3.1's random-walk critique, quantified.

Three claims, each measured:

1. **loss sensitivity** — walk success probability decays as ``(1−ℓ)^L``,
   so at realistic lengths and loss rates a large fraction of samples is
   simply lost, while an S&F view lookup is local and free;
2. **topology sensitivity** — a plain walk's end-node distribution is
   biased on a skewed overlay: on a hub-heavy graph its samples
   concentrate in the hub region far beyond the uniform share;
3. **corrections and alternatives** — the Metropolis–Hastings walk
   removes the bias (at the price of the same loss exponent over its
   longer mixing), and S&F simply *evolves the topology itself* toward
   uniformity, so a plain view lookup becomes unbiased.

The bias metric is the probability that a sample lands in the 16-node
hub region of a 200-node skewed overlay — 0.08 under uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.params import SFParams
from repro.experiments import registry
from repro.sampling.random_walk import (
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    walk_success_probability,
)
from repro.util.tables import format_table

HUB_REGION = 16  # nodes 0..15 form the dense core of the skewed overlay


@dataclass
class RandomWalkResult:
    n: int
    walk_length: int
    bias_walk_length: int
    success_rows: List[Tuple[float, float, float]] = field(default_factory=list)
    uniform_hub_mass: float = 0.0
    simple_walk_hub_mass: float = 0.0
    mh_walk_hub_mass: float = 0.0
    view_hub_mass: float = 0.0

    def format(self) -> str:
        rows = [
            [loss, f"{measured:.3f}", f"{predicted:.3f}"]
            for loss, measured, predicted in self.success_rows
        ]
        success = format_table(
            ["loss", "measured success", "(1−l)^L"],
            rows,
            title=(
                f"Section 3.1 — random-walk success over {self.walk_length} hops"
            ),
        )
        bias = format_table(
            ["sampler", "hub-region mass (uniform = "
             f"{self.uniform_hub_mass:.3f})"],
            [
                ["simple random walk", f"{self.simple_walk_hub_mass:.3f}"],
                ["Metropolis-Hastings walk", f"{self.mh_walk_hub_mass:.3f}"],
                ["S&F view lookup (after convergence)", f"{self.view_hub_mass:.3f}"],
            ],
            title=(
                f"Sample bias on a skewed overlay "
                f"(n={self.n}, {self.bias_walk_length}-hop walks)"
            ),
        )
        return f"{success}\n\n{bias}"


#: Measurement phases, in reporting order.
_PHASES = ("success", "bias-simple", "bias-mh", "bias-view")


def points(
    n: int = 200,
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    walk_length: int = 20,
    bias_walk_length: int = 200,
    attempts: int = 2000,
    warmup_rounds: float = 150.0,
    seed: int = 311,
) -> List[dict]:
    """One point per measurement phase: walk success on a steady-state
    overlay, then sample bias on a skewed one.

    Each phase derives its own walker/engine seed (seed+1..+4) inside the
    cell, so a phase's result does not depend on which others ran.
    """
    return [
        {
            "phase": phase,
            "n": n,
            "losses": list(losses),
            "walk_length": walk_length,
            "bias_walk_length": bias_walk_length,
            "attempts": attempts,
            "warmup_rounds": warmup_rounds,
            "seed": seed,
        }
        for phase in _PHASES
    ]


def _aggregate(points: List[dict], records: List[object]) -> RandomWalkResult:
    first = points[0]
    result = RandomWalkResult(
        n=first["n"],
        walk_length=first["walk_length"],
        bias_walk_length=first["bias_walk_length"],
        uniform_hub_mass=HUB_REGION / first["n"],
    )
    for point, record in zip(points, records):
        phase = point["phase"]
        if phase == "success":
            result.success_rows = record
        elif phase == "bias-simple":
            result.simple_walk_hub_mass = record
        elif phase == "bias-mh":
            result.mh_walk_hub_mass = record
        elif phase == "bias-view":
            result.view_hub_mass = record
    return result


@registry.experiment(
    "random-walks",
    anchor="§3.1 (random-walk critique, quantified)",
    description="walk success under loss and sample bias on a skewed overlay",
    points=points,
    fast=dict(attempts=800),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: one measurement phase (independent rebuilds)."""
    from repro.engine.sequential import SequentialEngine
    from repro.experiments.common import build_sf_system, warm_up
    from repro.net.loss import NoLoss

    params = SFParams(view_size=16, d_low=6)
    n = point["n"]
    attempts = point["attempts"]
    phase = point["phase"]

    if phase == "success":
        # Loss sensitivity of the plain walk on the healthy overlay.
        protocol, engine = build_sf_system(
            n, params, loss_rate=0.01, seed=seed, init_outdegree=10
        )
        warm_up(engine, point["warmup_rounds"])
        walk_length = point["walk_length"]
        rows: List[Tuple[float, float, float]] = []
        for loss in point["losses"]:
            walker = SimpleRandomWalk(protocol, loss_rate=loss, seed=seed + 1)
            outcomes = walker.sample_many(0, walk_length, attempts)
            measured = sum(o.succeeded for o in outcomes) / attempts
            rows.append((loss, measured, walk_success_probability(loss, walk_length)))
        return rows

    if phase == "bias-simple":
        # Plain-walk bias on the skewed overlay (lossless, long walks so
        # the measurement reflects the stationary bias, not slow mixing).
        skewed = _skewed_overlay(n, params)
        simple = SimpleRandomWalk(skewed, loss_rate=0.0, seed=seed + 2)
        ends = [
            o.end for o in simple.sample_many(0, point["bias_walk_length"], attempts)
        ]
        return sum(1 for e in ends if e is not None and e < HUB_REGION) / len(ends)

    if phase == "bias-mh":
        # Degree-corrected walk on the same skewed overlay.
        skewed = _skewed_overlay(n, params)
        mh = MetropolisHastingsWalk(skewed, loss_rate=0.0, seed=seed + 3)
        mh_ends = [
            o.end for o in mh.sample_many(0, point["bias_walk_length"], attempts)
        ]
        return sum(
            1 for e in mh_ends if e is not None and e < HUB_REGION
        ) / len(mh_ends)

    if phase == "bias-view":
        # Gossip alternative: give S&F the same skewed start, let the
        # membership layer converge, then sample node 0's evolving view.
        gossip = _skewed_overlay(n, params)
        gossip_engine = SequentialEngine(gossip, NoLoss(), seed=seed + 4)
        gossip_engine.run_rounds(point["warmup_rounds"])
        rng = gossip_engine.rng
        hits = 0
        draws = 0
        for _ in range(min(attempts, 500)):
            gossip_engine.run_rounds(1)
            entries = list(gossip.view_of(0).elements())
            if entries:
                sample = entries[int(rng.integers(len(entries)))]
                draws += 1
                if sample < HUB_REGION:
                    hits += 1
        return hits / max(draws, 1)

    raise ValueError(f"unknown random-walks phase {phase!r}")


def _skewed_overlay(n: int, params: SFParams):
    """A hub-heavy overlay: most nodes know only the first ten nodes."""
    from repro.core.sandf import SendForget

    protocol = SendForget(params)
    hubs = 10
    for h in range(hubs):
        protocol.add_node(h, [(h + k) % n for k in range(1, 7)])
    for u in range(hubs, n):
        protocol.add_node(u, [(u + k) % hubs for k in range(6)])
    return protocol
