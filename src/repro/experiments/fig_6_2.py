"""Figure 6.2: the structure of the degree Markov chain.

The figure is a schematic: reachable (d, k) states with solid lines for
transitions of atomic actions (no loss/duplication/deletion) and dashed
lines for transitions requiring loss, duplication, or deletion.  The
runner reproduces it structurally: it classifies every non-self-loop
transition of the constructed chain and verifies the schematic's claims —
atomic transitions move along the sum-degree-preserving diagonals
``(d, k) → (d∓2, k±1)``, the isolated state ``(0, 0)`` is excluded, and
lossy/dup/del transitions connect the diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.tables import format_table

State = Tuple[int, int]


@dataclass
class Fig62Result:
    params: SFParams
    loss_rate: float
    num_states: int
    atomic_transitions: List[Tuple[State, State]]
    lossy_transitions: List[Tuple[State, State]]
    isolated_state_present: bool

    def atomic_preserve_sum_degree(self) -> bool:
        return all(
            (a[0] + 2 * a[1]) == (b[0] + 2 * b[1])
            for a, b in self.atomic_transitions
        )

    def lossy_change_sum_degree(self) -> bool:
        return all(
            (a[0] + 2 * a[1]) != (b[0] + 2 * b[1])
            for a, b in self.lossy_transitions
        )

    def format(self) -> str:
        rows = [
            ["states", self.num_states],
            ["atomic (solid) transitions", len(self.atomic_transitions)],
            ["loss/dup/del (dashed) transitions", len(self.lossy_transitions)],
            ["isolated (0,0) state present", self.isolated_state_present],
            ["atomic preserve d+2k", self.atomic_preserve_sum_degree()],
            ["dashed change d+2k", self.lossy_change_sum_degree()],
        ]
        return format_table(
            ["property", "value"],
            rows,
            title=(
                f"Figure 6.2 structure (dL={self.params.d_low}, "
                f"s={self.params.view_size}, l={self.loss_rate})"
            ),
        )


def points() -> List[dict]:
    """The one point: the schematic's small chain (both presets)."""
    return [{"view_size": 8, "d_low": 0, "loss": 0.05}]


@registry.experiment(
    "fig-6.2",
    anchor="Fig 6.2 / §6.2 (degree-MC structure)",
    description="transition structure of the degree Markov chain",
    points=points,
    aggregate=registry.single_record,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> Fig62Result:
    """Experiment cell: classify the chain's transitions for one config."""
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    loss_rate = point["loss"]
    chain = DegreeMarkovChain(params, loss_rate=loss_rate)
    classes = chain.transition_classes()
    return Fig62Result(
        params=params,
        loss_rate=loss_rate,
        num_states=len(chain.states),
        atomic_transitions=classes["atomic"],
        lossy_transitions=classes["lossy"],
        isolated_state_present=(0, 0) in chain.states,
    )
