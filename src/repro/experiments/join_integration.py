"""Corollary 6.14: integration speed of joining nodes (section 6.5.3).

"For ℓ+δ ≪ 1 and s/dL = 2, after 2s rounds, a newly joined node is
expected to create at least Din/4 instances of its id in other views."

The experiment: bring a system to the steady state, measure the expected
indegree ``Din``, join fresh nodes with the minimal bootstrap (outdegree
``dL``, indegree 0, per section 6.5), run ``2s`` rounds, and compare each
joiner's representation (instances of its id in other views) against the
``Din/4`` bound.  Also reports outdegree recovery — the paper's remark
that after creating ~Din/4 in-neighbors the joiner starts receiving
messages and re-enters the normal operating regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.decay import expected_join_instances, join_integration_rounds
from repro.core.params import SFParams
from repro.experiments import registry
from repro.metrics.degrees import id_instance_count
from repro.util.tables import format_table


@dataclass
class JoinIntegrationResult:
    params: SFParams
    loss_rate: float
    expected_indegree: float
    bound_instances: float
    horizon_rounds: float
    joiner_instances: List[int]
    joiner_outdegrees: List[int]

    def mean_instances(self) -> float:
        return float(np.mean(self.joiner_instances))

    def satisfied(self) -> bool:
        """Does the *average* joiner meet the Corollary 6.14 expectation?"""
        return self.mean_instances() >= self.bound_instances

    def format(self) -> str:
        rows = [
            [i, inst, outd]
            for i, (inst, outd) in enumerate(
                zip(self.joiner_instances, self.joiner_outdegrees)
            )
        ]
        table = format_table(
            ["joiner", "id instances", "outdegree"],
            rows,
            title=(
                f"Corollary 6.14 (dL={self.params.d_low}, s={self.params.view_size}, "
                f"l={self.loss_rate}): after {self.horizon_rounds:.0f} rounds"
            ),
        )
        return (
            f"{table}\n"
            f"Din={self.expected_indegree:.1f}  bound=Din/4={self.bound_instances:.1f}  "
            f"mean created={self.mean_instances():.1f}  "
            f"satisfied={self.satisfied()}"
        )


def points(
    n: int = 400, joiners: int = 10, warmup_rounds: float = 300.0
) -> List[dict]:
    """The one point: ``joiners`` fresh nodes entering a warmed system of ``n``.

    ``horizon_rounds: None`` means the corollary's ``2s`` rounds.
    """
    return [
        {
            "n": n,
            "joiners": joiners,
            "warmup_rounds": warmup_rounds,
            "view_size": 40,
            "d_low": 20,
            "loss": 0.01,
            "horizon_rounds": None,
            "seed": 614,
        }
    ]


@registry.experiment(
    "cor-6.14",
    anchor="Corollary 6.14 (§6.5.3, join integration)",
    description="integration speed of joining nodes vs the Din/4 bound",
    points=points,
    fast=dict(n=200, joiners=4, warmup_rounds=150.0),
    aggregate=registry.single_record,
    backend_sensitive=True,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> JoinIntegrationResult:
    """Experiment cell: the full join-integration run for one config."""
    from repro.experiments.common import build_sf_system, warm_up

    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss_rate = point["loss"]
    joiners = point["joiners"]
    horizon_rounds = point["horizon_rounds"]
    if horizon_rounds is None:
        horizon_rounds = 2.0 * params.view_size
    protocol, engine = build_sf_system(
        n, params, loss_rate=loss_rate, seed=seed, backend=backend
    )
    warm_up(engine, point["warmup_rounds"])
    expected_indegree = float(np.mean(list(protocol.indegrees().values())))

    # The engine's own draw stream, so the run is one stream in call order.
    pick = engine.draws.integers
    live = protocol.node_ids()
    joiner_ids = list(range(n, n + joiners))
    for joiner in joiner_ids:
        bootstrap = [live[pick(len(live))] for _ in range(params.d_low)]
        protocol.add_node(joiner, bootstrap)
    engine.run_rounds(horizon_rounds)

    instances = [id_instance_count(protocol, j) for j in joiner_ids]
    outdegrees = [protocol.outdegree(j) for j in joiner_ids]
    return JoinIntegrationResult(
        params=params,
        loss_rate=loss_rate,
        expected_indegree=expected_indegree,
        bound_instances=expected_join_instances(
            params.d_low, params.view_size, expected_indegree
        ),
        horizon_rounds=horizon_rounds,
        joiner_instances=instances,
        joiner_outdegrees=outdegrees,
    )


def theoretical_summary(
    params: SFParams, loss_rate: float, delta: float, expected_indegree: float
) -> str:
    """The Lemma 6.13 numbers for reporting alongside the simulation."""
    horizon = join_integration_rounds(
        params.d_low, params.view_size, loss_rate, delta
    )
    bound = expected_join_instances(
        params.d_low, params.view_size, expected_indegree
    )
    return (
        f"Lemma 6.13: within {horizon:.0f} rounds a joiner creates >= "
        f"{bound:.1f} instances (Din={expected_indegree:.1f})"
    )
