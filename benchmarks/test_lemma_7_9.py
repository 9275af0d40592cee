"""L7.9/F7.1 — spatial independence: α ≥ 1 − 2(ℓ+δ).

The dependence-MC stationary values and the measured dependent-entry
fraction of a steady-state S&F system, per loss rate.  The measured
fraction must stay within the paper bound plus the finite-n duplicate
floor.
"""

from conftest import emit

from repro.experiments import independence_exp, registry


def run_full():
    return registry.execute("lemma-7.9")  # the full (paper-scale) preset


def test_lemma_7_9():
    result = run_full()
    emit(
        "Lemma 7.9 — spatial independence under loss",
        result.format() + "\n\n" + independence_exp.bound_table(),
    )

    assert all(row.within_bound for row in result.rows)
    # Dependence grows with loss but stays moderate (≈2× the loss rate).
    fractions = [row.dependent_fraction for row in result.rows]
    assert fractions == sorted(fractions)
    assert fractions[-1] < 0.3
