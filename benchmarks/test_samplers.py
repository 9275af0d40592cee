"""§3.1-Brahms — samplers persist, views evolve.

Expected shape: the pooled sampler outputs converge to uniformity (TVD at
the finite-sample floor) and then nearly stop changing, while view
entries keep turning over at a steady rate — uniformity without temporal
independence vs S&F's both.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("samplers")  # the full (paper-scale) preset


def test_samplers():
    result = run_full()
    emit("Section 3.1 — Brahms-style samplers vs evolving views", result.format())

    # Uniformity: final TVD near the finite-sample floor (~0.14 for
    # 1200 samples over 150 bins), far below a skewed distribution's.
    assert result.final_tvd() < 0.25
    assert all(epoch.coverage == 1.0 for epoch in result.epochs[1:])

    # Persistence: sampler change rate collapses after warm-up...
    first = result.epochs[0].sampler_changes_per_round
    last = result.late_sampler_change_rate()
    assert last < 0.15 * first
    # ...while view turnover stays an order of magnitude higher.
    assert result.late_view_turnover() > 3 * last
