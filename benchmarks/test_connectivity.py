"""§7.4-conn — connectivity sizing: minimal dL per (ℓ, δ, ε).

Paper worked example: ℓ = δ = 1%, ε = 10⁻³⁰ → dL ≥ 26.  A simulation
spot-check confirms steady-state snapshots at the recommended dL stay
weakly connected.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("connectivity")  # the full (paper-scale) preset


def test_connectivity():
    result = run_full()
    emit("Section 7.4 — connectivity sizing", result.format())

    assert result.lookup(0.01, 0.01, 1e-30) == 26
    mins = {}
    for loss, delta, epsilon, d_low, _ in result.rows:
        mins.setdefault(epsilon, []).append((loss, d_low))
    # dL requirements grow with the loss rate for each ε.
    for epsilon, pairs in mins.items():
        ordered = [d for _, d in sorted(pairs)]
        assert ordered == sorted(ordered)
    assert result.simulated_connected_fraction == 1.0
