"""Exact validation of the section 7.5 machinery on a tiny global chain.

Lemma 7.15's derivation runs:  expected conductance Φ(G)  →
``τε ≤ 1 + (4/Φ²)(log(1/π′) + log(4/ε))`` with ``π′ = E[π(X)]``.
On a tiny lossy S&F global chain all quantities are exactly computable,
so the chain of reasoning can be checked end to end:

* the exact τε (ε-independence time from a π-random start);
* the worst-case mixing time (τε must not exceed it);
* the exact expected conductance Φ(G) and spectral gap;
* the Lemma 7.15-style bound evaluated with the exact Φ and π′ —
  which must dominate the exact τε.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.conductance import expected_conductance
from repro.markov.global_mc import GlobalMarkovChain
from repro.markov.mixing import (
    epsilon_independence_time,
    mixing_time,
    relaxation_time,
    spectral_gap,
)
from repro.model.membership_graph import MembershipGraph
from repro.util.tables import format_table


@dataclass
class MixingValidationResult:
    loss_rate: float
    epsilon: float
    num_states: int
    tau_epsilon: float
    worst_case_mixing: int
    spectral_gap: float
    relaxation_time: float
    expected_conductance: float
    lemma_7_15_style_bound: float

    def bound_holds(self) -> bool:
        return self.tau_epsilon <= self.lemma_7_15_style_bound

    def format(self) -> str:
        rows = [
            ["global states", self.num_states],
            ["τε (exact, π-random start)", f"{self.tau_epsilon:.1f}"],
            ["worst-case mixing time", self.worst_case_mixing],
            ["spectral gap", f"{self.spectral_gap:.4f}"],
            ["relaxation time", f"{self.relaxation_time:.1f}"],
            ["expected conductance Φ(G)", f"{self.expected_conductance:.4f}"],
            ["(4/Φ²)(ln 1/π′ + ln 4/ε) bound", f"{self.lemma_7_15_style_bound:.1f}"],
            ["bound ≥ τε", self.bound_holds()],
        ]
        return format_table(
            ["quantity", "value"],
            rows,
            title=(
                f"Section 7.5 machinery, exact (ℓ={self.loss_rate}, "
                f"ε={self.epsilon})"
            ),
        )


def points(epsilon: float = 0.05) -> List[dict]:
    """The one point: the tiny lossy chain at independence level ``epsilon``."""
    return [{"loss": 0.2, "epsilon": epsilon}]


@registry.experiment(
    "mixing-exact",
    anchor="§7.5 (conductance → τε machinery, exact)",
    description="end-to-end check of the mixing-time bound on a tiny global MC",
    points=points,
    fast=dict(epsilon=0.1),
    aggregate=registry.single_record,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> MixingValidationResult:
    """Experiment cell: the full exact validation for one (ℓ, ε)."""
    loss_rate = point["loss"]
    epsilon = point["epsilon"]
    initial = MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])
    global_chain = GlobalMarkovChain(
        SFParams(view_size=8, d_low=2), loss_rate, initial
    )
    chain = global_chain.to_markov_chain()
    pi = chain.stationary_distribution()

    tau = epsilon_independence_time(chain, epsilon, max_steps=200_000)
    worst = mixing_time(chain, epsilon, max_steps=200_000)
    phi = expected_conductance(chain)
    pi_prime = float(np.dot(pi, pi))  # E[π(X)] under a π-random start
    bound = 1.0 + (4.0 / phi**2) * (
        math.log(1.0 / pi_prime) + math.log(4.0 / epsilon)
    )
    return MixingValidationResult(
        loss_rate=loss_rate,
        epsilon=epsilon,
        num_states=global_chain.num_states,
        tau_epsilon=tau,
        worst_case_mixing=worst,
        spectral_gap=spectral_gap(chain),
        relaxation_time=relaxation_time(chain),
        expected_conductance=phi,
        lemma_7_15_style_bound=bound,
    )
