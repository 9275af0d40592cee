"""Shared utilities: seeded randomness, statistics helpers, and table rendering.

These are deliberately small, dependency-light building blocks used by the
protocol engines, the Markov-chain solvers, and the experiment harness.
"""

from repro.util.rng import make_rng
from repro.util.serialization import to_jsonable
from repro.util.stats import (
    binomial_pmf,
    binomial_tail_below,
    chi_square_uniformity,
    distribution_mean_std,
    empirical_distribution,
    total_variation_distance,
)
from repro.util.tables import format_series, format_table

__all__ = [
    "make_rng",
    "binomial_pmf",
    "binomial_tail_below",
    "chi_square_uniformity",
    "distribution_mean_std",
    "empirical_distribution",
    "total_variation_distance",
    "format_series",
    "format_table",
    "to_jsonable",
]
