"""Live-degree scenario: a real UDP cluster against the §6.2 degree MC.

The section 6.2 Markov chain predicts the steady-state outdegree
distribution of a node under i.i.d. message loss ℓ.  Every other
experiment checks that prediction against *simulated* runs; this one
boots an actual localhost UDP cluster (:mod:`repro.runtime.cluster`)
with receiver-side drop rate ℓ, lets it mix, and compares the empirical
live outdegree distribution with the chain's ``outdegree_pmf`` by total
variation distance.

This is the paper's correctness claim in its production shape: the same
S&F code, with real sockets, real asynchrony, and real (injected) loss,
settles into the degree distribution the analysis derives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.runtime.cluster import ClusterConfig, run_cluster
from repro.util.stats import total_variation_distance
from repro.util.tables import format_table


@dataclass
class LiveDegreeResult:
    """Empirical vs. predicted outdegree pmf for one cluster run."""

    n: int
    view_size: int
    d_low: int
    drop_rate: float
    duration_s: float
    actions: int
    degree_counts: Dict[int, int]
    empirical_pmf: Dict[int, float]
    predicted_pmf: Dict[int, float]
    tv: float
    degree_violations: List[str]
    errors: List[str]

    def bounds_hold(self) -> bool:
        """Observation 5.1 on every live view: even, in ``[dL, s]``."""
        return not self.degree_violations

    def clean(self) -> bool:
        return self.bounds_hold() and not self.errors

    def format(self) -> str:
        support = sorted(set(self.empirical_pmf) | set(self.predicted_pmf))
        rows = [
            [
                d,
                self.degree_counts.get(d, 0),
                f"{self.empirical_pmf.get(d, 0.0):.4f}",
                f"{self.predicted_pmf.get(d, 0.0):.4f}",
            ]
            for d in support
        ]
        rows.append(["TV", "", "", f"{self.tv:.4f}"])
        rows.append(["bounds hold", "", "", str(self.bounds_hold())])
        rows.append(["node errors", "", "", str(len(self.errors))])
        return format_table(
            ["outdegree", "nodes", "live pmf", "degree-MC pmf"],
            rows,
            title=(
                f"Live UDP cluster vs degree MC (n={self.n}, s={self.view_size}, "
                f"dL={self.d_low}, drop={self.drop_rate}, "
                f"{self.duration_s:.1f}s, {self.actions} actions)"
            ),
        )


def points(n: int = 120, duration: float = 5.0) -> List[dict]:
    """The one point: an ``n``-node cluster gossiping for ``duration`` seconds."""
    return [
        {
            "n": n,
            "view_size": 8,
            "d_low": 2,
            "drop": 0.05,
            "rate": 60.0,
            "duration": duration,
            "seed": 20260808,
        }
    ]


@registry.experiment(
    "live-degree",
    anchor="§6.2 degree MC vs live UDP cluster",
    description="real localhost UDP cluster's degree distribution vs the degree MC",
    points=points,
    fast=dict(n=30, duration=1.5),
    aggregate=registry.single_record,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> LiveDegreeResult:
    """Experiment cell: one cluster run, one MC solve, one TV distance."""
    config = ClusterConfig(
        n=point["n"],
        view_size=point["view_size"],
        d_low=point["d_low"],
        drop_rate=point["drop"],
        rate=point["rate"],
        duration_s=point["duration"],
        seed=seed,
    )
    report = run_cluster(config)
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    predicted = DegreeMarkovChain(params, loss_rate=point["drop"]).solve()
    empirical = report.degree_pmf()
    return LiveDegreeResult(
        n=point["n"],
        view_size=point["view_size"],
        d_low=point["d_low"],
        drop_rate=point["drop"],
        duration_s=point["duration"],
        actions=report.actions,
        degree_counts=dict(report.degree_counts),
        empirical_pmf=empirical,
        predicted_pmf=dict(predicted.outdegree_pmf),
        tv=total_variation_distance(empirical, dict(predicted.outdegree_pmf)),
        degree_violations=list(report.degree_violations),
        errors=list(report.errors),
    )
