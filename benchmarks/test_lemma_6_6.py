"""L6.6/6.7 — the duplication/deletion/loss balance in the steady state.

Lemma 6.6: dup = ℓ + del.  Lemma 6.7: ℓ ≤ dup ≤ ℓ + δ.  Measured on the
live protocol and cross-checked against the degree MC.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("lemma-6.6")  # the full (paper-scale) preset


def test_lemma_6_6_and_6_7():
    result = run_full()
    emit("Lemmas 6.6/6.7 — dup/del/loss balance", result.format())

    assert result.max_residual() < 0.01, "Lemma 6.6 residual too large"
    assert all(row.within_lemma_6_7 for row in result.rows)
    # The degree MC agrees with the simulation on both probabilities.
    for row in result.rows:
        assert abs(row.duplication - row.mc_duplication) < 0.012
        assert abs(row.deletion - row.mc_deletion) < 0.012
