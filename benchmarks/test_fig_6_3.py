"""F6.3 — Figure 6.3: degree distributions under loss (dL=18, s=40).

Degree-MC curves for ℓ ∈ {0, 0.01, 0.05, 0.1} plus an S&F simulation
overlay.  Shape claims: the mean outdegree decreases with loss but stays
well above dL; the outdegree variance shrinks with loss; the simulated
means track the MC.
"""

import pytest
from conftest import emit

from repro.experiments import fig_6_3, registry


def run_full():
    return registry.execute("fig-6.3", points=fig_6_3.points(seed=63))


def test_fig_6_3():
    result = run_full()
    emit("Figure 6.3 — degrees under loss (dL=18, s=40)", result.format())

    out_means = [row.outdegree_mean for row in result.rows]
    assert out_means == sorted(out_means, reverse=True)
    assert all(mean > 20 for mean in out_means)
    out_stds = [row.outdegree_std for row in result.rows]
    assert out_stds == sorted(out_stds, reverse=True)
    for row in result.rows:
        assert row.simulated_outdegree_mean == pytest.approx(
            row.outdegree_mean, rel=0.1
        )
        assert row.simulated_indegree_mean == pytest.approx(
            row.indegree_mean, rel=0.1
        )
