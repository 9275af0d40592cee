"""Property M2: load balance from adversarial initial topologies.

Section 2 requires that, starting from *any* initial state, the variance
of node indegrees eventually stays bounded.  The experiment starts S&F
from a maximally indegree-skewed "hubs" topology (every node's view holds
only a handful of hub ids) and from a high-diameter ring, tracks the
indegree variance over rounds, and compares the settled value against the
degree MC's stationary indegree variance.

(A pure two-entry star — every spoke holding only the hub id, at
outdegree exactly ``dL`` — also converges but on an O(n/s)-times longer
timescale: spokes pinned at ``dL`` duplicate on every action and can only
be unstuck by the hub's single action per round.  The hubs topology keeps
the same extreme indegree skew without that bottleneck.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.metrics.degrees import indegree_variance
from repro.net.loss import UniformLoss
from repro.util.tables import format_series


@dataclass
class LoadBalanceResult:
    n: int
    params: SFParams
    loss_rate: float
    rounds: List[float]
    variance_curves: Dict[str, List[float]] = field(default_factory=dict)
    mc_variance: Optional[float] = None

    def final_variance(self, topology: str) -> float:
        return self.variance_curves[topology][-1]

    def format(self) -> str:
        body = format_series(
            self.variance_curves,
            "round",
            [int(r) for r in self.rounds],
            title=(
                f"Property M2: indegree variance over time "
                f"(n={self.n}, dL={self.params.d_low}, s={self.params.view_size}, "
                f"l={self.loss_rate})"
            ),
            precision=1,
        )
        if self.mc_variance is None:  # the prediction cell was not run
            return body
        return f"{body}\ndegree-MC stationary indegree variance: {self.mc_variance:.1f}"


def _hubs_protocol(n: int, params: SFParams, hubs: int = 10) -> SendForget:
    """Maximally skewed indegrees: everyone's view points at a few hubs.

    Every non-hub node holds 6 distinct hub ids (outdegree 6, comfortably
    above ``d_low`` so nodes can clear and spread); hubs point at their
    ring successors.  Initial hub indegree is ≈ 6·(n−hubs)/hubs while
    other nodes start at ≈ 0 — an extreme load imbalance that S&F's
    reinforcement component must repair.
    """
    protocol = SendForget(params)
    for h in range(hubs):
        protocol.add_node(h, [(h + 1) % hubs, (h + 2) % hubs])
    for u in range(hubs, n):
        targets = [(u + k) % hubs for k in range(6)]
        protocol.add_node(u, targets)
    return protocol


def _ring_protocol(n: int, params: SFParams) -> SendForget:
    """High-diameter start: each node points at its two ring successors."""
    protocol = SendForget(params)
    for u in range(n):
        protocol.add_node(u, [(u + 1) % n, (u + 2) % n])
    return protocol


#: Adversarial start topologies, in reporting order.
_TOPOLOGIES = ("hubs", "ring")


def points(
    n: int = 300,
    params: SFParams = SFParams(view_size=12, d_low=2),
    loss_rate: float = 0.01,
    rounds: int = 400,
    sample_every: int = 50,
    seed: int = 22,
) -> List[dict]:
    """One point per starting topology (hubs, ring), then the degree-MC
    prediction.

    The ring bootstraps every node at outdegree 2, so ``d_low`` must be
    ≤ 2.  Both topologies share one engine seed, so the curves differ by
    the starting graph alone.  The prediction is a cell of its own, so a
    resumed sweep reads it from the checkpoint journal like the curves.
    """
    if params.d_low > 2:
        raise ValueError("the ring start has outdegree 2; need d_low <= 2")
    curves = [
        {
            "topology": topology,
            "n": n,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "loss": loss_rate,
            "rounds": rounds,
            "sample_every": sample_every,
            "seed": seed,
        }
        for topology in _TOPOLOGIES
    ]
    prediction = {
        "prediction": "degree-mc",
        "view_size": params.view_size,
        "d_low": params.d_low,
        "loss": loss_rate,
    }
    return curves + [prediction]


def _aggregate(points: List[dict], records: List[object]) -> LoadBalanceResult:
    curves = [point for point in points if "topology" in point]
    if not curves:
        raise RuntimeError("no variance curve to report")
    first = curves[0]
    result = LoadBalanceResult(
        n=first["n"],
        params=SFParams(view_size=first["view_size"], d_low=first["d_low"]),
        loss_rate=first["loss"],
        rounds=[],
    )
    for point, record in zip(points, records):
        if "prediction" in point:
            result.mc_variance = record
            continue
        xs, ys = record
        result.rounds = xs
        result.variance_curves[point["topology"]] = ys
    return result


@registry.experiment(
    "load-balance",
    anchor="Property M2 / §2 (load balance from adversarial starts)",
    description="indegree-variance convergence from hubs and ring topologies",
    points=points,
    fast=dict(n=200, rounds=150),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: one topology's indegree-variance curve, or the
    degree MC's stationary indegree variance."""
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    if "prediction" in point:
        solved = DegreeMarkovChain(params, loss_rate=point["loss"]).solve()
        _, in_std = solved.indegree_mean_std()
        return in_std**2
    if params.d_low > 2:
        raise ValueError("the ring start has outdegree 2; need d_low <= 2")
    builder = {"hubs": _hubs_protocol, "ring": _ring_protocol}[point["topology"]]
    n, rounds, sample_every = point["n"], point["rounds"], point["sample_every"]
    protocol = builder(n, params)
    engine = SequentialEngine(protocol, UniformLoss(point["loss"]), seed=seed)
    xs: List[float] = [0.0]
    ys: List[float] = [indegree_variance(protocol)]
    elapsed = 0
    while elapsed < rounds:
        step = min(sample_every, rounds - elapsed)
        engine.run_rounds(step)
        elapsed += step
        xs.append(float(elapsed))
        ys.append(indegree_variance(protocol))
    return xs, ys
