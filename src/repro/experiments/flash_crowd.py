"""Flash crowd: the §6.5 join path under a synchronized arrival burst.

Section 6.5 analyzes joins arriving at a steady *rate*; a flash crowd
concentrates the same mass into a single round.  Every joiner bootstraps
off the small pre-crowd core (copying ``dL``-sized view samples, §5's
join rule), so the core's indegree — and with it its message load,
Property M2 — spikes at once, then must relax back as the crowd's ids
mix into the now-larger population.

The cell replays a :func:`repro.churn.traces.flash_crowd_trace` against
a warmed S&F system round by round, tracking the pre-crowd core's
indegree through the spike, and checks that the degree invariant
(Observation 5.1) holds at every round and that the merged population
ends weakly connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.churn import bootstrap_from_peer, flash_crowd_trace
from repro.core.params import SFParams
from repro.experiments import registry
from repro.experiments.common import build_sf_system, warm_up
from repro.util.rng import make_rng
from repro.util.tables import format_table

JOIN = "join"


@dataclass
class FlashCrowdResult:
    """Core-indegree trajectory through one flash crowd."""

    n0: int
    crowd: int
    view_size: int
    d_low: int
    loss_rate: float
    rounds: int
    core_indegree_before: float
    core_indegree_peak: float
    core_indegree_peak_round: int
    core_indegree_final: float
    core_max_indegree_peak: int
    population_final: int
    weakly_connected: bool
    invariant_rounds_ok: int

    def relaxed(self) -> bool:
        """Did the core's mean indegree come back near its pre-crowd level?

        The population grew by ``crowd`` nodes, so at steady state the
        core's share of everyone's views *shrinks*; landing within 1.5 ×
        the pre-crowd mean is already full relaxation.
        """
        return self.core_indegree_final <= 1.5 * max(self.core_indegree_before, 1.0)

    def clean(self) -> bool:
        return (
            self.weakly_connected
            and self.invariant_rounds_ok == self.rounds
            and self.relaxed()
        )

    def format(self) -> str:
        rows = [
            ["core mean indegree, pre-crowd", f"{self.core_indegree_before:.2f}"],
            [
                "core mean indegree, peak",
                f"{self.core_indegree_peak:.2f} (round {self.core_indegree_peak_round})",
            ],
            ["core mean indegree, final", f"{self.core_indegree_final:.2f}"],
            ["core max indegree, peak", str(self.core_max_indegree_peak)],
            ["final population", str(self.population_final)],
            ["weakly connected", str(self.weakly_connected)],
            [
                "invariant held",
                f"{self.invariant_rounds_ok}/{self.rounds} rounds",
            ],
            ["relaxed", str(self.relaxed())],
        ]
        return format_table(
            ["quantity", "value"],
            rows,
            title=(
                f"Flash crowd: {self.crowd} joiners into n0={self.n0} "
                f"(s={self.view_size}, dL={self.d_low}, loss={self.loss_rate})"
            ),
        )


def _core_indegrees(protocol, core: List[int]) -> Dict[int, int]:
    indegrees = protocol.indegrees()
    return {u: indegrees.get(u, 0) for u in core}


def points(
    n0: int = 50, crowd: int = 100, warm_rounds: int = 30, rounds: int = 150
) -> List[dict]:
    """The one point: ``crowd`` joiners hitting a warmed core of ``n0``."""
    return [
        {
            "n0": n0,
            "crowd": crowd,
            "view_size": 12,
            "d_low": 4,
            "loss": 0.05,
            "warm_rounds": warm_rounds,
            "rounds": rounds,
            "seed": 20260808,
        }
    ]


@registry.experiment(
    "flash-crowd",
    anchor="§6.5 join analysis under a synchronized arrival burst",
    description="flash-crowd joins: core indegree spike, relaxation, invariants",
    points=points,
    fast=dict(n0=24, crowd=24, warm_rounds=20, rounds=60),
    aggregate=registry.single_record,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> FlashCrowdResult:
    """One flash crowd, replayed round by round with core snapshots."""
    n0 = point["n0"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    protocol, engine = build_sf_system(n0, params, loss_rate=point["loss"], seed=seed)
    warm_up(engine, point["warm_rounds"])

    core = list(range(n0))
    before = _core_indegrees(protocol, core)
    core_mean_before = sum(before.values()) / len(core)

    events = flash_crowd_trace(
        core,
        rounds=point["rounds"],
        crowd_size=point["crowd"],
        arrival_round=0,
        seed=None if seed is None else seed + 1,
    )
    by_round: Dict[int, list] = {}
    for event in events:
        by_round.setdefault(event.round, []).append(event)

    rng = make_rng(None if seed is None else seed + 2)
    bootstrap_size = max(2, params.d_low + (params.d_low % 2))
    peak_mean, peak_round, peak_max = core_mean_before, -1, max(before.values())
    invariant_rounds_ok = 0
    for round_number in range(point["rounds"]):
        for event in by_round.get(round_number, []):
            if event.kind == JOIN:
                ids = bootstrap_from_peer(protocol, event.node, bootstrap_size, rng)
                protocol.add_node(event.node, ids)
            elif protocol.has_node(event.node):
                protocol.remove_node(event.node)
        engine.run_rounds(1)
        try:
            protocol.check_invariant()
            invariant_rounds_ok += 1
        except AssertionError:
            pass
        snapshot = _core_indegrees(protocol, core)
        mean = sum(snapshot.values()) / len(core)
        if mean > peak_mean:
            peak_mean, peak_round = mean, round_number
        peak_max = max(peak_max, max(snapshot.values()))

    engine.stats.check_conservation()
    final = _core_indegrees(protocol, core)
    return FlashCrowdResult(
        n0=n0,
        crowd=point["crowd"],
        view_size=point["view_size"],
        d_low=point["d_low"],
        loss_rate=point["loss"],
        rounds=point["rounds"],
        core_indegree_before=core_mean_before,
        core_indegree_peak=peak_mean,
        core_indegree_peak_round=peak_round,
        core_indegree_final=sum(final.values()) / len(core),
        core_max_indegree_peak=peak_max,
        population_final=len(protocol.node_ids()),
        weakly_connected=protocol.export_graph().is_weakly_connected(),
        invariant_rounds_ok=invariant_rounds_ok,
    )
