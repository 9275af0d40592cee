"""Views vs samplers: the Brahms contrast of section 3.1.

Runs S&F wrapped in a min-wise sampler layer and measures, over time:

* **uniformity** — the pooled sampler outputs converge toward a uniform
  distribution over nodes (they are argmins of i.i.d. hashes once the
  gossip stream has covered the population);
* **freshness** — after convergence the samplers (almost) stop changing,
  while view entries keep turning over.  This is exactly the paper's
  point: samplers "are designed to persist rather than evolve", so they
  provide uniformity but *not* temporal independence (Property M5);
  evolving S&F views provide both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.experiments import registry
from repro.net.loss import UniformLoss
from repro.sampling.minwise import SamplerLayer
from repro.util.stats import total_variation_distance
from repro.util.tables import format_table


@dataclass
class SamplerEpoch:
    round_number: float
    sampler_tvd_to_uniform: float
    sampler_changes_per_round: float
    view_turnover_per_round: float
    coverage: float  # fraction of sampler slots holding some id


@dataclass
class SamplerResult:
    n: int
    slots: int
    epochs: List[SamplerEpoch] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            [
                int(epoch.round_number),
                f"{epoch.sampler_tvd_to_uniform:.3f}",
                f"{epoch.coverage:.2f}",
                f"{epoch.sampler_changes_per_round:.2f}",
                f"{epoch.view_turnover_per_round:.1f}",
            ]
            for epoch in self.epochs
        ]
        return format_table(
            ["round", "sampler TVD", "coverage", "sampler Δ/round", "view Δ/round"],
            rows,
            title=(
                f"Section 3.1 — Brahms-style samplers vs evolving views "
                f"(n={self.n}, {self.slots} slots/node)"
            ),
        )

    def final_tvd(self) -> float:
        return self.epochs[-1].sampler_tvd_to_uniform

    def late_sampler_change_rate(self) -> float:
        return self.epochs[-1].sampler_changes_per_round

    def late_view_turnover(self) -> float:
        return self.epochs[-1].view_turnover_per_round


def points(
    n: int = 150, epochs: int = 8, rounds_per_epoch: float = 25.0
) -> List[dict]:
    """The one point: ``epochs`` measurements, ``rounds_per_epoch`` apart."""
    return [
        {
            "slots": 8,
            "loss": 0.02,
            "seed": 37,
            "n": n,
            "epochs": epochs,
            "rounds_per_epoch": rounds_per_epoch,
        }
    ]


@registry.experiment(
    "samplers",
    anchor="§3.1 (Brahms-style samplers vs evolving views)",
    description="sampler uniformity/freshness against view turnover over time",
    points=points,
    fast=dict(n=100, epochs=5, rounds_per_epoch=20.0),
    aggregate=registry.single_record,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> SamplerResult:
    """Experiment cell: the full sampler time series for one config."""
    n, slots = point["n"], point["slots"]
    rounds_per_epoch = point["rounds_per_epoch"]
    params = SFParams(view_size=16, d_low=6)
    inner = SendForget(params)
    for u in range(n):
        inner.add_node(u, [(u + k) % n for k in range(1, 11)])
    layered = SamplerLayer(inner, slots=slots, seed=seed)
    engine = SequentialEngine(layered, UniformLoss(point["loss"]), seed=seed + 1)

    result = SamplerResult(n=n, slots=slots)
    previous_changes = 0
    uniform = {u: 1.0 / n for u in range(n)}
    for _ in range(point["epochs"]):
        view_before = {u: Counter(inner.view_of(u)) for u in inner.node_ids()}
        engine.run_rounds(rounds_per_epoch)

        samples = layered.all_samples()
        tvd = 1.0
        if samples:
            histogram = Counter(samples)
            total = sum(histogram.values())
            tvd = total_variation_distance(
                {u: histogram.get(u, 0) / total for u in range(n)}, uniform
            )
        total_changes = sum(
            layered.bank(u).total_changes() for u in inner.node_ids()
        )
        changes_this_epoch = total_changes - previous_changes
        previous_changes = total_changes

        turnover = 0
        for u in inner.node_ids():
            if u not in view_before:
                continue
            now = Counter(inner.view_of(u))
            removed = view_before[u] - now
            turnover += sum(removed.values())

        filled = sum(
            1
            for u in inner.node_ids()
            for s in layered.samples_of(u)
            if s is not None
        )
        result.epochs.append(
            SamplerEpoch(
                round_number=engine.rounds_completed,
                sampler_tvd_to_uniform=tvd,
                sampler_changes_per_round=changes_this_epoch / rounds_per_epoch,
                view_turnover_per_round=turnover / rounds_per_epoch,
                coverage=filled / (n * slots),
            )
        )
    return result
