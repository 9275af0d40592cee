"""Lemma 6.4 sweep — the operating envelope across loss rates.

Expected shape: dE strictly decreasing in ℓ (Lemma 6.4) yet staying well
above dL even at 20% loss; deletion probability decreasing (Obs 6.5);
duplication ≈ ℓ + del (Lemma 6.6); conductance bound degrading smoothly.
"""

from conftest import emit

from repro.experiments import registry


def test_loss_sweep():
    result = registry.execute("loss-sweep")
    emit("Lemma 6.4 — loss sweep / operating envelope", result.format())

    outdegrees = result.outdegrees()
    assert outdegrees == sorted(outdegrees, reverse=True)  # Lemma 6.4
    assert all(row.margin_over_d_low > 3.0 for row in result.rows)
    deletions = [row.deletion for row in result.rows]
    assert deletions == sorted(deletions, reverse=True)  # Observation 6.5
    for row in result.rows:
        assert abs(row.duplication - (row.loss_rate + row.deletion)) < 0.002
    conductances = [row.conductance_bound for row in result.rows]
    assert conductances == sorted(conductances, reverse=True)
