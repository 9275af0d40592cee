"""L7.6 — Property M3: uniform representation in views.

Exact on a tiny lossy global MC (all ordered pairs share one membership
probability) and empirical via pooled-replication occupancy counts.
"""

from conftest import emit

from repro.experiments import registry


def run_both():
    bundle = registry.execute("lemma-7.6")  # the full (paper-scale) preset
    return bundle.exact, bundle.empirical


def test_lemma_7_6():
    exact, empirical = run_both()
    emit(
        "Lemma 7.6 — membership uniformity",
        exact.format() + "\n\n" + empirical.format(),
    )

    assert exact.spread() < 1e-10
    assert empirical.relative_spread < 0.5
    assert min(empirical.pooled_counts) > 0
