"""Mixing and ε-independence times on exact chains (section 7.5's objects).

The paper distinguishes two quantities:

* the classical **mixing time** ``T_ε`` — convergence from the *worst*
  starting state (prior work's O(n⁹)-style bounds);
* the **ε-independence time** ``τ_ε`` — convergence from a *π-random*
  starting state (Definition in §7.5), the quantity Lemma 7.15 bounds.

For the tiny global chains we can enumerate exactly, both are computable
directly from the transition matrix.  The module also provides the
spectral-gap route (relaxation time) for cross-checking.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.markov.chain import MarkovChain
from repro.util.stats import total_variation_distance


def mixing_time(chain: MarkovChain, epsilon: float, max_steps: int = 10_000) -> int:
    """Worst-case mixing time: smallest t with ``max_x TV(δ_x Pᵗ, π) < ε``."""
    _check_epsilon(epsilon)
    pi = chain.stationary_distribution()
    scratch = np.empty((chain.n, chain.n))
    for t, distributions in zip(range(max_steps + 1), _row_powers(chain)):
        if _tv_rows(distributions, pi, scratch).max() < epsilon:
            return t
    raise RuntimeError(f"worst-case mixing did not reach {epsilon} in {max_steps} steps")


def epsilon_independence_time(
    chain: MarkovChain, epsilon: float, max_steps: int = 10_000
) -> float:
    """The paper's τ_ε: expected (over π-random starts) time to ε-closeness.

    Computed as ``Σ_x π(x) · τ_ε(x)`` where ``τ_ε(x)`` is the first t with
    ``TV(δ_x Pᵗ, π) < ε`` — convergence from an *average* state rather
    than the worst one, matching Definition of τε(G) in section 7.5 taken
    in expectation.
    """
    _check_epsilon(epsilon)
    pi = chain.stationary_distribution()
    remaining = np.ones(chain.n, dtype=bool)
    hit_time = np.zeros(chain.n)
    scratch = np.empty((chain.n, chain.n))
    for t, distributions in zip(range(max_steps + 1), _row_powers(chain)):
        settled = remaining & (_tv_rows(distributions, pi, scratch) < epsilon)
        hit_time[settled] = t
        remaining &= ~settled
        if not remaining.any():
            return float(np.dot(pi, hit_time))
    raise RuntimeError(
        f"{int(remaining.sum())} states did not reach {epsilon} in {max_steps} steps"
    )


def _row_powers(chain: MarkovChain) -> Iterator[np.ndarray]:
    """``Pᵗ`` for t = 0, 1, …: row ``x`` is ``δ_x Pᵗ``.

    Two ``(n, n)`` buffers take turns as the product's output, so a step
    allocates nothing; a yielded array is overwritten two steps later.
    """
    current = np.eye(chain.n)
    following = np.empty_like(current)
    while True:
        yield current
        np.matmul(current, chain.P, out=following)
        current, following = following, current


def _tv_rows(
    distributions: np.ndarray, pi: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``TV(δ_x Pᵗ, π)`` for every start ``x`` (one row each) at once,
    with ``scratch`` (the shape of ``distributions``) as workspace."""
    np.subtract(distributions, pi, out=scratch)
    np.abs(scratch, out=scratch)
    return 0.5 * scratch.sum(axis=1)


def tv_decay_curve(
    chain: MarkovChain, start: Optional[int], steps: int
) -> List[float]:
    """TV distance to π over time, from state ``start`` or (None) averaged
    over a π-random start."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    pi = chain.stationary_distribution()
    if start is None:
        curve: List[float] = []
        for _, distributions in zip(range(steps + 1), _row_powers(chain)):
            average = float(
                sum(
                    pi[x] * total_variation_distance(distributions[x], pi)
                    for x in range(chain.n)
                )
            )
            curve.append(average)
        return curve
    if not 0 <= start < chain.n:
        raise ValueError(f"start state {start} out of range")
    p = np.zeros(chain.n)
    p[start] = 1.0
    curve = [total_variation_distance(p, pi)]
    for _ in range(steps):
        p = p @ chain.P
        curve.append(total_variation_distance(p, pi))
    return curve


def spectral_gap(chain: MarkovChain) -> float:
    """``1 − |λ₂|``: the absolute spectral gap of the transition matrix.

    The relaxation time ``1/gap`` lower-bounds mixing up to logs; for
    reversible chains Cheeger's inequalities tie it to conductance:
    ``φ²/2 ≤ gap ≤ 2φ``.
    """
    eigenvalues = np.linalg.eigvals(chain.P)
    moduli = sorted(np.abs(eigenvalues), reverse=True)
    if len(moduli) < 2:
        return 1.0
    # The largest modulus is 1 (Perron root); guard against numerics.
    second = min(moduli[1], 1.0)
    return float(1.0 - second)


def relaxation_time(chain: MarkovChain) -> float:
    """``1 / spectral_gap`` (∞ for disconnected/periodic chains)."""
    gap = spectral_gap(chain)
    if gap <= 1e-12:
        return float("inf")
    return 1.0 / gap


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
