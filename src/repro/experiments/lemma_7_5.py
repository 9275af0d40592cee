"""Lemmas 7.1–7.5: exact structural checks on tiny global MCs.

* **No loss, simple edges** (the 3-node hub component): the chain is
  reversible, doubly stochastic, and its stationary distribution is
  uniform — Lemmas 7.3, 7.4, 7.5 verified exactly.
* **No loss, parallel edges**: states with edge multiplicities break the
  exact slot-pair symmetry the paper's Lemma 7.3 proof relies on, so the
  stationary distribution is only uniform over multiplicity-free regions;
  the deviation is reported (an honest caveat — the paper's setting
  ``n ≫ s`` makes multiplicities vanishingly rare, so the lemma holds
  asymptotically).  Membership uniformity (Lemma 7.6) still holds exactly
  by vertex symmetry.
* **With loss** (0 < ℓ < 1): the reachable chain is strongly connected
  (Lemma 7.1) and ergodic with a unique stationary distribution
  (Lemma 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.global_mc import GlobalMarkovChain
from repro.model.membership_graph import MembershipGraph


@dataclass
class GlobalChainChecks:
    label: str
    num_states: int
    irreducible: bool
    aperiodic: bool
    doubly_stochastic: bool
    reversible: bool
    stationary_uniform: bool
    stationary_min: float
    stationary_max: float
    membership_uniform_spread: float

    def format(self) -> str:
        return (
            f"{self.label}: states={self.num_states} "
            f"irreducible={self.irreducible} aperiodic={self.aperiodic} "
            f"doubly_stochastic={self.doubly_stochastic} "
            f"reversible={self.reversible} uniform={self.stationary_uniform} "
            f"π∈[{self.stationary_min:.4f}, {self.stationary_max:.4f}] "
            f"membership-spread<1e-10={self.membership_uniform_spread < 1e-10}"
        )


def _check(label: str, chain: GlobalMarkovChain) -> GlobalChainChecks:
    markov = chain.to_markov_chain()
    pi = markov.stationary_distribution()
    membership = chain.uniformity_of_membership()
    values = list(membership.values())
    return GlobalChainChecks(
        label=label,
        num_states=chain.num_states,
        irreducible=markov.is_irreducible(),
        aperiodic=markov.is_aperiodic(),
        doubly_stochastic=markov.is_doubly_stochastic(),
        reversible=markov.is_reversible(tolerance=1e-8),
        stationary_uniform=bool(
            np.allclose(pi, 1.0 / chain.num_states, atol=1e-8)
        ),
        stationary_min=float(pi.min()),
        stationary_max=float(pi.max()),
        membership_uniform_spread=float(max(values) - min(values)),
    )


def run_lossless_simple() -> GlobalChainChecks:
    """The hub component: 3 states, exact Lemma 7.3–7.5 verification."""
    initial = MembershipGraph.from_edges([(0, 1), (0, 2)], nodes=[0, 1, 2])
    chain = GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, initial)
    return _check("lossless hub (Lemmas 7.3-7.5)", chain)


def run_lossless_multiedge() -> GlobalChainChecks:
    """A component containing parallel-edge states (the caveat case)."""
    initial = MembershipGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    )
    chain = GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, initial)
    return _check("lossless with parallel-edge states", chain)


def run_lossy(loss_rate: float = 0.3) -> GlobalChainChecks:
    """A 2-node lossy chain: Lemma 7.1/7.2 strong connectivity + ergodicity."""
    if not 0.0 < loss_rate < 1.0:
        raise ValueError(f"Lemma 7.1 needs 0 < loss < 1, got {loss_rate}")
    initial = MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])
    chain = GlobalMarkovChain(
        SFParams(view_size=8, d_low=2), loss_rate, initial, max_states=50_000
    )
    return _check(f"lossy n=2 (ℓ={loss_rate}, Lemmas 7.1/7.2)", chain)


@dataclass
class Lemma75Bundle:
    """The three structural checks, reported together."""

    checks: List[GlobalChainChecks] = field(default_factory=list)

    def format(self) -> str:
        return "\n".join(check.format() for check in self.checks)


def points() -> List[dict]:
    """One point per structural check (both presets: the chains are tiny)."""
    return [
        {"kind": "lossless-simple"},
        {"kind": "lossless-multiedge"},
        {"kind": "lossy", "loss": 0.3},
    ]


@registry.experiment(
    "lemma-7.5",
    anchor="Lemmas 7.1–7.5 (§7.2, exact global-MC checks)",
    description="structural checks on tiny global MCs (reversibility, uniformity)",
    points=points,
    aggregate=lambda points, records: Lemma75Bundle(checks=list(records)),
)
def _cell(point: dict, seed, *, backend: str = "reference") -> GlobalChainChecks:
    """Experiment cell: one of the three structural checks."""
    kind = point["kind"]
    if kind == "lossless-simple":
        return run_lossless_simple()
    if kind == "lossless-multiedge":
        return run_lossless_multiedge()
    if kind == "lossy":
        return run_lossy(loss_rate=point["loss"])
    raise ValueError(f"unknown lemma-7.5 cell kind {kind!r}")
