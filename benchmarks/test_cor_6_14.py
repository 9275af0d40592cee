"""C6.14 — Corollary 6.14: joiner integration within 2s rounds.

With s/dL = 2 and low loss, a fresh joiner is expected to create at least
Din/4 instances of its id within 2s rounds, after which it operates
normally (outdegree off the duplication floor).
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("cor-6.14")  # the full (paper-scale) preset


def test_cor_6_14():
    result = run_full()
    emit("Corollary 6.14 — join integration", result.format())

    assert result.satisfied(), (
        f"mean created {result.mean_instances():.1f} < bound "
        f"{result.bound_instances:.1f}"
    )
    assert all(d >= result.params.d_low for d in result.joiner_outdegrees)
