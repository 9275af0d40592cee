"""L7.15-exact — the §7.5 machinery verified end-to-end on an exact chain.

Expected shape: τε (from a π-random start) ≤ worst-case mixing time ≤
the conductance-based bound; the spectral gap is positive (ergodicity);
the Lemma 7.15-style bound computed from the exact Φ(G) dominates τε.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("mixing-exact")  # the full (paper-scale) preset


def test_mixing_exact():
    result = run_full()
    emit("Section 7.5 — exact τε / conductance validation", result.format())

    assert result.tau_epsilon <= result.worst_case_mixing + 1e-9
    assert result.spectral_gap > 0.0
    assert result.expected_conductance > 0.0
    assert result.bound_holds()
    # The relaxation time and τε agree within the usual log factors.
    assert result.tau_epsilon < 20 * result.relaxation_time
