"""Statistics helpers used across the analysis and metrics layers.

Includes the binomial reference distributions the paper compares against
(Figure 6.1), total-variation distance for convergence measurements, and a
chi-square uniformity test used to validate Property M3 empirically.

``scipy.stats`` takes over a second to import and every ``repro`` command
imports this module, so the four functions that call it import it
themselves (``tests/test_import_budget.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np


def binomial_pmf(k: int, n: int, p: float) -> float:
    """Return ``P(X = k)`` for ``X ~ Binomial(n, p)``.

    Used to overlay the binomial reference curve of Figure 6.1 on the S&F
    degree distributions.
    """
    from scipy import stats as scipy_stats

    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if k < 0 or k > n:
        return 0.0
    return float(scipy_stats.binom.pmf(k, n, p))


def binomial_pmf_vector(n: int, p: float) -> np.ndarray:
    """Return the full binomial pmf over ``0..n`` as an array."""
    from scipy import stats as scipy_stats

    return scipy_stats.binom.pmf(np.arange(n + 1), n, p)


def binomial_tail_below(threshold: int, n: int, p: float) -> float:
    """Return ``P(X < threshold)`` for ``X ~ Binomial(n, p)``.

    This is the tail used by the connectivity condition of section 7.4:
    the probability that a node has fewer than ``threshold`` independent
    out-neighbors when each of ``n`` view slots is independently useful
    with probability ``p``.
    """
    from scipy import stats as scipy_stats

    if threshold <= 0:
        return 0.0
    return float(scipy_stats.binom.cdf(threshold - 1, n, p))


def total_variation_distance(
    p: Mapping[object, float] | Sequence[float],
    q: Mapping[object, float] | Sequence[float],
) -> float:
    """Return the total-variation distance between two distributions.

    Accepts either aligned sequences or dict-like distributions keyed by
    outcome (missing keys are treated as probability zero).  This is the
    ``||p_t − π||`` norm in the ergodic theorem of section 3.2.
    """
    if isinstance(p, Mapping) or isinstance(q, Mapping):
        p_map = dict(p) if isinstance(p, Mapping) else dict(enumerate(p))
        q_map = dict(q) if isinstance(q, Mapping) else dict(enumerate(q))
        keys = set(p_map) | set(q_map)
        return 0.5 * sum(abs(p_map.get(k, 0.0) - q_map.get(k, 0.0)) for k in keys)
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ValueError(
            f"distributions must have matching shapes, got {p_arr.shape} and {q_arr.shape}"
        )
    return float(0.5 * np.abs(p_arr - q_arr).sum())


def empirical_distribution(samples: Iterable[int]) -> Dict[int, float]:
    """Return the empirical pmf of integer ``samples`` as a dict."""
    counts: Dict[int, int] = {}
    total = 0
    for value in samples:
        counts[value] = counts.get(value, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("cannot build a distribution from zero samples")
    return {value: count / total for value, count in counts.items()}


def distribution_mean_std(pmf: Mapping[int, float] | Sequence[float]) -> Tuple[float, float]:
    """Return (mean, standard deviation) of a pmf.

    Accepts a dict mapping outcome to probability or a dense sequence
    indexed by outcome.  Used to reproduce the in-text table of section 6.4
    (average indegrees "28 ± 3.4" etc.).
    """
    if isinstance(pmf, Mapping):
        items = list(pmf.items())
    else:
        items = list(enumerate(pmf))
    total = sum(prob for _, prob in items)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
        raise ValueError(f"pmf must sum to 1 (got {total})")
    mean = sum(value * prob for value, prob in items)
    var = sum((value - mean) ** 2 * prob for value, prob in items)
    return mean, math.sqrt(max(var, 0.0))


def chi_square_uniformity(counts: Sequence[int]) -> Tuple[float, float]:
    """Chi-square test that category ``counts`` came from a uniform law.

    Returns ``(statistic, p_value)``.  Used to validate Property M3: the
    long-run occupancy counts of each id in a tagged node's view should be
    statistically uniform across ids.
    """
    from scipy import stats as scipy_stats

    counts_arr = np.asarray(counts, dtype=float)
    if counts_arr.ndim != 1 or len(counts_arr) < 2:
        raise ValueError("need at least two categories")
    if counts_arr.sum() <= 0:
        raise ValueError("counts must sum to a positive number")
    statistic, p_value = scipy_stats.chisquare(counts_arr)
    return float(statistic), float(p_value)


def geometric_survival(per_round_removal: float, rounds: int) -> float:
    """Return ``(1 − per_round_removal) ** rounds``.

    The survival form used throughout section 6.5's decay lemmas.
    """
    if not 0.0 <= per_round_removal <= 1.0:
        raise ValueError(f"removal probability must be in [0, 1], got {per_round_removal}")
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    return (1.0 - per_round_removal) ** rounds
