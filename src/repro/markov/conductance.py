"""Conductance computations (Definitions 7.11–7.13).

For a finite MC with transition matrix ``P`` and stationary π:

* ``Q(x, y) = π(x)·P(x, y)``; the boundary size of ``S`` is
  ``|∂S| = Q(S, Sᶜ)``;
* the conductance of ``S`` is ``φ(S) = |∂S| / π(S)``;
* the graph conductance is ``min φ(S)`` over ``π(S) ≤ 1/2`` — exponential
  to compute exactly, so :func:`conductance` only sweeps the provided or
  generated candidate family;
* the paper's *expected conductance* ``Φ(G)`` (Definition 7.13) averages,
  over a π-random start ``X``, the minimum conductance among the neighbor
  sets ``Γ_i(X)`` with ``π(Γ_i(X)) ≤ 1/2`` — computable exactly for small
  chains and estimable by sampling.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.markov.chain import MarkovChain
from repro.util.rng import SeedLike, make_rng


def boundary_size(chain: MarkovChain, subset: Iterable[int]) -> float:
    """``|∂S| = Σ_{x∈S, y∉S} π(x)·P(x, y)`` (Definition 7.11)."""
    members = set(subset)
    _check_subset(chain, members)
    inside = np.zeros(chain.n, dtype=bool)
    inside[list(members)] = True
    return _boundary(chain.stationary_distribution(), chain.P, inside)


def _boundary(pi: np.ndarray, P: np.ndarray, inside: np.ndarray) -> float:
    """``Q(S, Sᶜ)`` for the boolean membership mask ``inside``."""
    return float(pi[inside] @ P[inside][:, ~inside].sum(axis=1))


def conductance_of_set(chain: MarkovChain, subset: Iterable[int]) -> float:
    """``φ(S) = |∂S| / π(S)`` (Definition 7.12)."""
    members = set(subset)
    _check_subset(chain, members)
    pi = chain.stationary_distribution()
    mass = sum(pi[x] for x in members)
    if mass <= 0.0:
        raise ValueError("subset has zero stationary mass")
    return boundary_size(chain, members) / mass


def conductance(
    chain: MarkovChain,
    candidate_sets: Optional[Sequence[Iterable[int]]] = None,
) -> float:
    """``min φ(S)`` over candidate sets with ``π(S) ≤ 1/2``.

    Without explicit candidates, sweeps the classic family: prefixes of
    states ordered by stationary mass, plus all singletons — a standard
    upper-bounding family (the true conductance minimizes over *all*
    subsets, which is intractable beyond ~20 states).
    """
    pi = chain.stationary_distribution()
    if candidate_sets is None:
        order = list(np.argsort(-pi))
        candidate_sets = [order[: i + 1] for i in range(chain.n - 1)]
        candidate_sets += [[x] for x in range(chain.n)]
    best = np.inf
    for candidate in candidate_sets:
        members = set(candidate)
        if not members or len(members) == chain.n:
            continue
        mass = sum(pi[x] for x in members)
        if mass <= 0.0 or mass > 0.5 + 1e-12:
            continue
        best = min(best, boundary_size(chain, members) / mass)
    if not np.isfinite(best):
        raise ValueError("no candidate set had stationary mass in (0, 1/2]")
    return float(best)


def neighbor_sets(chain: MarkovChain, start: int, tolerance: float = 1e-12) -> List[Set[int]]:
    """The nested ``Γ_i(start)`` (Definition 7.10) until they stop growing."""
    return [
        set(np.flatnonzero(layer).tolist())
        for layer in _neighbor_masks(chain.P > tolerance, start)
    ]


def _neighbor_masks(adjacency: np.ndarray, start: int) -> Iterator[np.ndarray]:
    """``Γ_i(start)`` as boolean masks: a BFS on the sparsity pattern."""
    layer = np.zeros(adjacency.shape[0], dtype=bool)
    layer[start] = True
    while True:
        yield layer
        grown = layer | adjacency[layer].any(axis=0)
        if np.array_equal(grown, layer):
            return
        layer = grown


def expected_conductance(
    chain: MarkovChain,
    samples: Optional[int] = None,
    seed: SeedLike = None,
) -> float:
    """The paper's ``Φ(G)`` (Definition 7.13).

    With ``samples=None`` computes the exact expectation over all start
    states weighted by π; otherwise estimates from π-distributed samples.
    """
    pi = chain.stationary_distribution()
    rng = make_rng(seed)
    if samples is None:
        starts = list(range(chain.n))
        weights = pi
    else:
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        starts = [int(rng.choice(chain.n, p=pi)) for _ in range(samples)]
        weights = np.full(len(starts), 1.0 / len(starts))
    adjacency = chain.P > 1e-12
    total = 0.0
    for weight, start in zip(weights, starts):
        if weight <= 0.0:
            continue
        best = np.inf
        for layer in _neighbor_masks(adjacency, start):
            mass = pi[layer].sum()
            if mass > 0.5 + 1e-12 or layer.all():
                break
            if mass > 0.0:
                best = min(best, _boundary(pi, chain.P, layer) / mass)
        if np.isfinite(best):
            total += weight * best
    return float(total)


def _check_subset(chain: MarkovChain, members: Set[int]) -> None:
    if not members:
        raise ValueError("subset must be nonempty")
    if len(members) >= chain.n:
        raise ValueError("subset must be a proper subset of the state space")
    for x in members:
        if not 0 <= x < chain.n:
            raise ValueError(f"state {x} out of range")
