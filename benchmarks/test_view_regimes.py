"""M1 — constant and logarithmic view-size regimes across system sizes.

Expected shape: at every n, the overlay is connected with a small
(≈ log n) diameter; the measured mean outdegree matches the n-independent
degree MC within a few percent; the Lemma 6.6 balance residual stays tiny
regardless of n.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("view-regimes")  # the full (paper-scale) preset


def test_view_regimes():
    result = run_full()
    emit("Property M1 — constant vs logarithmic views", result.format())

    for row in result.rows:
        assert row.connected, f"{row.regime} n={row.n} disconnected"
        assert row.diameter is not None and row.diameter <= 6
        assert abs(row.outdegree_mean - row.mc_outdegree_mean) < 0.05 * max(
            row.mc_outdegree_mean, 1.0
        )
        assert abs(row.dup_minus_loss_del) < 0.01
    # The constant regime's degree profile is n-invariant.
    constant = result.rows_for("constant")
    means = [row.outdegree_mean for row in constant]
    assert max(means) - min(means) < 0.5
