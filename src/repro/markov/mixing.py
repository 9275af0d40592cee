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

from typing import List, Optional

import numpy as np

from repro.markov.chain import MarkovChain


def mixing_time(chain: MarkovChain, epsilon: float, max_steps: int = 10_000) -> int:
    """Worst-case mixing time: smallest t with ``max_x TV(δ_x Pᵗ, π) < ε``."""
    return int(_hit_times(chain, epsilon, max_steps).max())


def epsilon_independence_time(
    chain: MarkovChain, epsilon: float, max_steps: int = 10_000
) -> float:
    """The paper's τ_ε: expected (over π-random starts) time to ε-closeness.

    Computed as ``Σ_x π(x) · τ_ε(x)`` where ``τ_ε(x)`` is the first t with
    ``TV(δ_x Pᵗ, π) < ε`` — convergence from an *average* state rather
    than the worst one, matching Definition of τε(G) in section 7.5 taken
    in expectation.
    """
    hit = _hit_times(chain, epsilon, max_steps)
    return float(np.dot(chain.stationary_distribution(), hit))


def _hit_times(chain: MarkovChain, epsilon: float, max_steps: int) -> np.ndarray:
    """``τ_ε(x)``, the first t with ``TV(δ_x Pᵗ, π) < ε``, for every start x.

    ``TV(δ_x Pᵗ, π)`` never increases with t, so the last t at or above ε
    is found by doubling: square P until every row of ``P^(2^B)`` is
    within ε (or ``2^B`` reaches ``max_steps``), then set that t bit by bit
    from the high bit down, one stacked product ``rows @ P^(2^b)`` per
    bit.  Raises ``RuntimeError`` if a start needs more than ``max_steps``.
    """
    _check_epsilon(epsilon)
    pi = chain.stationary_distribution()
    powers = [chain.P]  # powers[b] = P^(2^b)
    while True:
        far_at_end = _tv_rows(powers[-1], pi) >= epsilon
        if not far_at_end.any() or 2 ** (len(powers) - 1) >= max_steps:
            break
        powers.append(powers[-1] @ powers[-1])
    rows = np.eye(chain.n)
    last_far = np.zeros(chain.n, dtype=np.int64)
    for b in reversed(range(len(powers) - 1)):
        candidate = rows @ powers[b]
        far = _tv_rows(candidate, pi) >= epsilon
        rows[far] = candidate[far]
        last_far[far] += 2**b
    # A start already within ε at t = 0 hits at 0; one still far at 2^B
    # (only when 2^B ≥ max_steps) hits past it.
    hit = last_far + (_tv_rows(np.eye(chain.n), pi) >= epsilon) + far_at_end
    late = int((hit > max_steps).sum())
    if late:
        raise RuntimeError(f"{late} states did not reach {epsilon} in {max_steps} steps")
    return hit


def _tv_rows(distributions: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """``TV(row, π)`` for every row of ``distributions`` at once."""
    return 0.5 * np.abs(distributions - pi).sum(axis=1)


def tv_decay_curve(
    chain: MarkovChain, start: Optional[int], steps: int
) -> List[float]:
    """TV distance to π over time, from state ``start`` or (None) averaged
    over a π-random start, one product ``δ Pᵗ → δ Pᵗ⁺¹`` per step."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    pi = chain.stationary_distribution()
    if start is None:
        rows, weights = np.eye(chain.n), pi
    elif 0 <= start < chain.n:
        rows, weights = np.eye(chain.n)[[start]], np.ones(1)
    else:
        raise ValueError(f"start state {start} out of range")
    curve: List[float] = []
    for t in range(steps + 1):
        if t:
            rows = rows @ chain.P
        curve.append(float(weights @ _tv_rows(rows, pi)))
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
