"""F6.4 — Figure 6.4: decay of a departed node's id (Lemma 6.10 bound).

Shape claims: the bound curves for different loss rates nearly coincide;
the 50% crossing is at ≈70 rounds; a simulated departure decays at least
as fast as the bound.
"""

from conftest import emit

from repro.experiments import fig_6_4, registry


def run_full():
    return registry.execute("fig-6.4", points=fig_6_4.points(step=50))


def test_fig_6_4():
    result = run_full()
    emit("Figure 6.4 — survival of a departed id", result.format())

    for loss, rounds in result.half_lives().items():
        assert 55 < rounds < 75, f"half-life for l={loss} out of the ~70-round band"
    finals = [curve[-1] for curve in result.bound_curves.values()]
    assert max(finals) - min(finals) < 0.05  # near loss-insensitivity
    for loss, simulated in result.simulated_curves.items():
        bound = result.bound_curves[loss]
        for bound_value, simulated_value in zip(bound, simulated):
            assert simulated_value <= bound_value + 0.1
