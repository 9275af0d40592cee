"""Lemma 7.6 / Property M3: uniformity of view membership.

In the steady state, every id ``v ≠ u`` appears in ``u``'s view with the
same probability.  Two validations:

* **exact** — for a tiny system, enumerate the global MC and read
  ``Pr(v ∈ u.lv)`` from the stationary distribution: all ordered pairs
  should give the *same* number (:func:`run_exact`);
* **empirical** — for a moderate system, tally long-run occupancy of every
  id across observer views and test uniformity by chi-square
  (the ``"empirical"`` points of :func:`points`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.params import SFParams
from repro.experiments import registry
from repro.metrics.uniformity import OccupancyTracker
from repro.util.tables import format_table


@dataclass
class ExactUniformityResult:
    num_states: int
    membership_probabilities: Dict[Tuple[int, int], float]

    def spread(self) -> float:
        values = list(self.membership_probabilities.values())
        return max(values) - min(values)

    def format(self) -> str:
        rows = [
            [f"{u}->{v}", f"{p:.6f}"]
            for (u, v), p in sorted(self.membership_probabilities.items())
        ]
        return format_table(
            ["pair", "Pr(v in u.lv)"],
            rows,
            title=(
                f"Lemma 7.6 exact ({self.num_states} global states); "
                f"spread<1e-10={self.spread() < 1e-10}"
            ),
        )


def run_exact(loss_rate: float = 0.2) -> ExactUniformityResult:
    """Exact membership probabilities on a tiny global MC.

    With no loss, uses the 3-node hub component (3 states).  With loss,
    uses the 2-node system (hundreds of states) — a 3-node lossy chain
    already enumerates hundreds of thousands of states, beyond what a
    dense stationary solve should be asked to do.
    """
    from repro.markov.global_mc import GlobalMarkovChain
    from repro.model.membership_graph import MembershipGraph

    if loss_rate == 0.0:
        initial = MembershipGraph.from_edges([(0, 1), (0, 2)], nodes=[0, 1, 2])
        chain = GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, initial)
    else:
        initial = MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])
        chain = GlobalMarkovChain(
            SFParams(view_size=8, d_low=2), loss_rate, initial, max_states=20_000
        )
    return ExactUniformityResult(
        num_states=chain.num_states,
        membership_probabilities=chain.uniformity_of_membership(),
    )


@dataclass
class EmpiricalUniformityResult:
    n: int
    samples: int
    replications: int
    relative_spread: float
    pooled_counts: List[int]

    def format(self) -> str:
        return (
            f"Lemma 7.6 empirical: n={self.n}, "
            f"{self.replications}x{self.samples} samples, "
            f"relative spread={self.relative_spread:.3f} "
            f"(counts min={min(self.pooled_counts)}, "
            f"max={max(self.pooled_counts)})"
        )


@dataclass
class UniformityBundle:
    """Bundle of the exact and empirical Lemma 7.6 validations."""

    exact: ExactUniformityResult
    empirical: EmpiricalUniformityResult

    def format(self) -> str:
        return f"{self.exact.format()}\n{self.empirical.format()}"


def points(
    n: int = 30,
    params: SFParams = SFParams(view_size=8, d_low=2),
    loss_rate: float = 0.02,
    warmup_rounds: float = 100.0,
    samples: int = 40,
    sample_gap_rounds: float = 12.0,
    replications: int = 6,
    seed: int = 76,
) -> List[dict]:
    """The exact tiny-MC point, then one empirical point per replication.

    A single run's time-averaged occupancy converges slowly — a node's
    indegree is mean-reverting with time constant ≈ s²/dL rounds, so
    widely spaced snapshots remain correlated.  Pooling several runs with
    independent seeds removes that correlation; the acceptance statistic
    is the scale-free (max − min)/mean spread of per-id presence counts.
    Replication ``i`` runs on seed ``seed + i``, and pooling
    integer counts is order-independent, so results are identical at any
    ``jobs``; skipped replications are excluded from the pool (and from
    the reported replication count).
    """
    if replications <= 0:
        raise ValueError(f"replications must be positive, got {replications}")
    return [{"kind": "exact", "loss": 0.2}] + [
        {
            "kind": "empirical",
            "n": n,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "loss": loss_rate,
            "warmup_rounds": warmup_rounds,
            "samples": samples,
            "sample_gap_rounds": sample_gap_rounds,
            "seed": seed + replication,
        }
        for replication in range(replications)
    ]


def _pool_empirical(cells: List[Tuple[dict, List[int]]]) -> EmpiricalUniformityResult:
    """Pool the occupancy counts of per-replication ``(point, record)`` cells."""
    first = cells[0][0]
    n = first["n"]
    pooled = [0] * n
    for _, counts in cells:
        pooled = [a + b for a, b in zip(pooled, counts)]
    mean = sum(pooled) / n
    return EmpiricalUniformityResult(
        n=n,
        samples=first["samples"],
        replications=len(cells),
        relative_spread=(max(pooled) - min(pooled)) / mean,
        pooled_counts=pooled,
    )


def _aggregate(points: List[dict], records: List[object]) -> UniformityBundle:
    cells: Dict[str, list] = {"exact": [], "empirical": []}
    for point, record in zip(points, records):
        cells[point["kind"]].append((point, record))
    if not (cells["exact"] and cells["empirical"]):
        raise RuntimeError("no exact cell or no replication to report")
    return UniformityBundle(
        exact=cells["exact"][0][1], empirical=_pool_empirical(cells["empirical"])
    )


@registry.experiment(
    "lemma-7.6",
    anchor="Lemma 7.6 / Property M3 (§7.3)",
    description="uniformity of view membership: exact tiny-MC + empirical occupancy",
    points=points,
    fast=dict(replications=3),
    aggregate=_aggregate,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference"):
    """Experiment cell: exact solve, or one empirical replication's counts."""
    if point["kind"] == "exact":
        return run_exact(loss_rate=point["loss"])
    from repro.experiments.common import build_sf_system, warm_up

    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    protocol, engine = build_sf_system(
        n,
        params,
        loss_rate=point["loss"],
        seed=seed,
        init_outdegree=min(4, params.view_size - 2),
        backend=backend,
    )
    warm_up(engine, point["warmup_rounds"])
    tracker = OccupancyTracker(protocol)
    for _ in range(point["samples"]):
        engine.run_rounds(point["sample_gap_rounds"])
        tracker.sample()
    return tracker.pooled_counts(list(range(n)))
