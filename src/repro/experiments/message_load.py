"""The operational reading of Property M2: message load ∝ indegree.

Section 2 motivates load balance by "the number of messages received by a
node (sent by the membership protocol or by an application) is
proportional to the number of its in-neighbors."  The experiment runs a
steady-state S&F system, counts messages actually received per node, and

* regresses receive counts on time-averaged indegrees (the correlation
  should be strongly positive and the intercept near zero);
* compares the coefficient of variation of receive load against the
  degree-MC prediction (std/mean of the stationary indegree law) —
  confirming that balanced indegrees really do mean balanced bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.params import SFParams
from repro.experiments import registry
from repro.util.tables import format_table


@dataclass
class MessageLoadResult:
    n: int
    rounds: float
    correlation: float
    load_cv: float            # std/mean of per-node receive counts
    indegree_cv: float        # std/mean of time-averaged indegrees
    mc_indegree_cv: float     # degree-MC prediction
    max_load_ratio: float     # max node load / mean load

    def format(self) -> str:
        rows = [
            ["corr(received, avg indegree)", f"{self.correlation:.3f}"],
            ["receive-load CV", f"{self.load_cv:.3f}"],
            ["indegree CV (measured)", f"{self.indegree_cv:.3f}"],
            ["indegree CV (degree MC)", f"{self.mc_indegree_cv:.3f}"],
            ["max/mean load ratio", f"{self.max_load_ratio:.2f}"],
        ]
        return format_table(
            ["quantity", "value"],
            rows,
            title=(
                f"Property M2 operationally: message load ∝ indegree "
                f"(n={self.n}, {self.rounds:.0f} measured rounds)"
            ),
        )


def points(
    n: int = 400,
    warmup_rounds: float = 200.0,
    measure_rounds: float = 200.0,
    snapshots: int = 20,
) -> List[dict]:
    """The one point: ``snapshots`` indegree samples over the measured window."""
    return [
        {
            "view_size": 40,
            "d_low": 18,
            "loss": 0.01,
            "seed": 92,
            "n": n,
            "warmup_rounds": warmup_rounds,
            "measure_rounds": measure_rounds,
            "snapshots": snapshots,
        }
    ]


@registry.experiment(
    "message-load",
    anchor="Property M2 / §2 (message load ∝ indegree)",
    description="per-node receive load regressed on time-averaged indegree",
    points=points,
    fast=dict(n=200, warmup_rounds=100.0, measure_rounds=100.0, snapshots=10),
    aggregate=registry.single_record,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> MessageLoadResult:
    """Experiment cell: the full load-vs-indegree measurement for one config."""
    from repro.experiments.common import build_sf_system, warm_up
    from repro.markov.degree_mc import DegreeMarkovChain

    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss_rate = point["loss"]
    measure_rounds = point["measure_rounds"]
    snapshots = point["snapshots"]
    protocol, engine = build_sf_system(
        n, params, loss_rate=loss_rate, seed=seed, backend=backend
    )
    warm_up(engine, point["warmup_rounds"])
    engine.reset_load_counts()

    indegree_sums = np.zeros(n)
    for _ in range(snapshots):
        engine.run_rounds(measure_rounds / snapshots)
        degrees = protocol.indegrees()
        for u in range(n):
            indegree_sums[u] += degrees[u]
    average_indegree = indegree_sums / snapshots
    counts = engine.load_counts("received")
    received = np.array([counts.get(u, 0) for u in range(n)], dtype=float)

    correlation = float(np.corrcoef(received, average_indegree)[0, 1])
    load_cv = float(received.std() / received.mean())
    indegree_cv = float(average_indegree.std() / average_indegree.mean())
    solved = DegreeMarkovChain(params, loss_rate=loss_rate).solve()
    mc_mean, mc_std = solved.indegree_mean_std()
    return MessageLoadResult(
        n=n,
        rounds=measure_rounds,
        correlation=correlation,
        load_cv=load_cv,
        indegree_cv=indegree_cv,
        mc_indegree_cv=mc_std / mc_mean,
        max_load_ratio=float(received.max() / received.mean()),
    )
