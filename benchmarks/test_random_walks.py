"""§3.1-RW — the random-walk critique: loss and topology sensitivity.

Expected shape: measured walk success matches (1−ℓ)^L; a plain walk's
samples concentrate on a skewed overlay's hub region while the
Metropolis-Hastings walk and a converged S&F view lookup stay near the
uniform share.
"""

import pytest
from conftest import emit

from repro.experiments import registry
from repro.sampling.random_walk import walk_success_probability


def run_full():
    return registry.execute("random-walks")  # the full (paper-scale) preset


def test_random_walks():
    result = run_full()
    emit("Section 3.1 — random walks vs gossip sampling", result.format())

    for loss, measured, predicted in result.success_rows:
        assert measured == pytest.approx(predicted, abs=0.04)
        assert predicted == pytest.approx(
            walk_success_probability(loss, result.walk_length)
        )
    assert result.simple_walk_hub_mass > 0.5
    assert result.mh_walk_hub_mass < 2.5 * result.uniform_hub_mass
    assert result.view_hub_mass < 3.0 * result.uniform_hub_mass
