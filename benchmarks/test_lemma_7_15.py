"""L7.15 — Property M5: temporal independence.

Bound values (τε/n = O(s·log n)) across system sizes, plus the empirical
overlap-decay curves: views decorrelate from their snapshot within a
small multiple of s·ln n rounds, with and without loss.
"""

import math

from conftest import emit

from repro.experiments import registry


def run_both():
    bundle = registry.execute("lemma-7.15")  # the full (paper-scale) preset
    return bundle.bounds, bundle.decay


def test_lemma_7_15():
    bounds, decay = run_both()
    emit(
        "Lemma 7.15 — temporal independence",
        bounds.format() + "\n\n" + decay.format(),
    )

    # Bound scaling: per-node actions / (s·ln n) stays within a tight band.
    ratios = [b / (s * math.log(n)) for n, s, _, b in bounds.rows]
    assert max(ratios) / min(ratios) < 1.5

    # Empirical: decorrelation within 2.5×(s·ln n) rounds; loss does not
    # break it (α stays bounded away from zero).
    for loss in decay.curves:
        crossing = decay.decorrelation_round(loss, threshold=0.06)
        assert crossing <= 2.5 * decay.reference_rounds
