"""Ablation of the section 5 optimizations.

Runs the base protocol and each optimization (plus all combined) on the
same population and loss rate, and reports the design-relevant outcomes:

* duplication rate (dependence creation) — mark-and-undelete should cut it;
* deletion rate (information discarded) — replace-on-full removes it;
* dependent-entry fraction — the Lemma 7.9 quantity per variant;
* mean outdegree and message count — wide messages move the overhead
  trade-off.

This is the experiment the paper's "we leave optimizations to future
work" remark invites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.params import SFParams
from repro.core.variants import SendForgetVariant
from repro.engine.sequential import SequentialEngine
from repro.experiments import registry
from repro.net.loss import UniformLoss
from repro.util.tables import format_table


@dataclass
class VariantRow:
    name: str
    duplication: float
    deletion: float
    undeletions: int
    replacements: int
    dependent_fraction: float
    mean_outdegree: float
    messages_per_round: float


@dataclass
class AblationResult:
    n: int
    loss_rate: float
    params: SFParams
    rows: List[VariantRow] = field(default_factory=list)

    def row(self, name: str) -> VariantRow:
        for entry in self.rows:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def format(self) -> str:
        table_rows = [
            [
                row.name,
                f"{row.duplication:.4f}",
                f"{row.deletion:.4f}",
                row.undeletions,
                row.replacements,
                f"{row.dependent_fraction:.4f}",
                f"{row.mean_outdegree:.1f}",
                f"{row.messages_per_round:.1f}",
            ]
            for row in self.rows
        ]
        return format_table(
            ["variant", "dup", "del", "undel", "repl", "dep frac", "outdeg", "msgs/round"],
            table_rows,
            title=(
                f"Section 5 optimization ablation "
                f"(n={self.n}, l={self.loss_rate}, dL={self.params.d_low}, "
                f"s={self.params.view_size})"
            ),
        )


VARIANTS: Dict[str, Dict[str, object]] = {
    "base": {},
    "mark-and-undelete": {"mark_and_undelete": True},
    "replace-on-full": {"replace_on_full": True},
    "wide-messages(3)": {"ids_per_message": 3},
    "all-combined": {
        "mark_and_undelete": True,
        "replace_on_full": True,
        "ids_per_message": 3,
    },
}


def points(
    n: int = 300,
    loss_rate: float = 0.05,
    params: SFParams = SFParams(view_size=16, d_low=6),
    warmup_rounds: float = 200.0,
    measure_rounds: float = 150.0,
    seed: int = 55,
) -> List[dict]:
    """One point per variant on an identical population/loss configuration.

    All variants share one engine seed: identical populations, identical
    channel randomness.
    """
    return [
        {
            "variant": name,
            "n": n,
            "loss": loss_rate,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "warmup_rounds": warmup_rounds,
            "measure_rounds": measure_rounds,
            "seed": seed,
        }
        for name in VARIANTS
    ]


def _aggregate(points: List[dict], records: List[VariantRow]) -> AblationResult:
    first = points[0]
    return AblationResult(
        n=first["n"],
        loss_rate=first["loss"],
        params=SFParams(view_size=first["view_size"], d_low=first["d_low"]),
        rows=list(records),
    )


@registry.experiment(
    "ablation",
    anchor="§5 (optimization ablation)",
    description="per-variant dup/del/dependence/overhead on identical populations",
    points=points,
    fast=dict(n=150, warmup_rounds=120.0, measure_rounds=80.0),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> VariantRow:
    """Experiment cell: one variant on the shared configuration."""
    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    measure_rounds = point["measure_rounds"]
    protocol = SendForgetVariant(params, **VARIANTS[point["variant"]])
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 11)])
    engine = SequentialEngine(protocol, UniformLoss(point["loss"]), seed=seed)
    engine.run_rounds(point["warmup_rounds"])
    protocol.stats.reset()
    engine.run_rounds(measure_rounds)
    protocol.check_invariant()
    mean_out = float(
        np.mean([protocol.outdegree(u) for u in protocol.node_ids()])
    )
    return VariantRow(
        name=point["variant"],
        duplication=protocol.stats.duplication_probability(),
        deletion=protocol.stats.deletion_probability(),
        undeletions=protocol.undeletion_count(),
        replacements=protocol.replacement_count(),
        dependent_fraction=protocol.dependent_fraction(),
        mean_outdegree=mean_out,
        messages_per_round=protocol.stats.messages_sent / measure_rounds,
    )
