"""Tests for the analytic/numeric experiment runners."""

import math

import pytest

from repro.experiments import (
    connectivity_exp,
    fig_6_4,
    independence_exp,
    lemma_7_5,
    registry,
    table_6_3,
    temporal_exp,
)


class TestFig61:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute("fig-6.1")  # the full preset: dm = 90

    def test_all_curves_present(self, result):
        assert set(result.outdegree) == {"binomial", "analytical", "markov"}
        assert set(result.indegree) == {"binomial", "analytical", "markov"}

    def test_all_centered_at_30(self, result):
        moments = result.moments()
        for key, values in moments.items():
            assert values["mean"] == pytest.approx(30.0, abs=0.5), key

    def test_indegree_narrower_than_binomial(self, result):
        # The indegree reference is Bin(45, 2/3) with std ≈ 3.16; the S&F
        # curves sit clearly below it (paper Fig 6.1 left panel).
        moments = result.moments()
        assert (
            moments["indegree/markov"]["std"]
            < 0.85 * moments["indegree/binomial"]["std"]
        )
        assert (
            moments["indegree/analytical"]["std"]
            < 0.85 * moments["indegree/binomial"]["std"]
        )

    def test_outdegree_similar_variance(self, result):
        moments = result.moments()
        ratio = moments["outdegree/markov"]["std"] / moments["outdegree/binomial"]["std"]
        assert 0.8 < ratio < 1.25

    def test_format_contains_panels(self, result):
        text = result.format()
        assert "outdegree" in text and "indegree" in text


class TestFig62:
    def test_structure_claims(self):
        result = registry.execute("fig-6.2")
        assert result.atomic_preserve_sum_degree()
        assert result.lossy_change_sum_degree()
        assert not result.isolated_state_present
        assert len(result.atomic_transitions) > 0
        assert len(result.lossy_transitions) > 0
        assert "Figure 6.2" in result.format()


class TestTable63:
    def test_paper_row(self):
        result = registry.execute("table-6.3")
        selection = result.lookup(30, 0.01)
        assert (selection.d_low, selection.view_size) == (18, 40)

    def test_sweep_monotone_in_d_hat(self):
        result = registry.execute(
            "table-6.3",
            points=table_6_3.points(d_hats=(20, 30, 40), deltas=(0.01,)),
        )
        sizes = [result.lookup(d, 0.01).view_size for d in (20, 30, 40)]
        assert sizes == sorted(sizes)

    def test_missing_lookup_raises(self):
        result = registry.execute(
            "table-6.3", points=table_6_3.points(d_hats=(30,), deltas=(0.01,))
        )
        with pytest.raises(KeyError):
            result.lookup(12, 0.5)


class TestFig63:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute("fig-6.3", fast=True)  # MC only, no simulation

    def test_paper_indegree_table(self, result):
        """28±3.4, 27±3.6, 24±4.1, 23±4.3 — means within 1."""
        paper = {0.0: 28.0, 0.01: 27.0, 0.05: 24.0, 0.1: 23.0}
        for row in result.rows:
            assert row.indegree_mean == pytest.approx(paper[row.loss_rate], abs=1.0)

    def test_outdegree_above_d_low(self, result):
        for row in result.rows:
            assert row.outdegree_mean > 18 + 2

    def test_outdegree_variance_shrinks_with_loss(self, result):
        stds = [row.outdegree_std for row in result.rows]
        assert stds == sorted(stds, reverse=True)

    def test_format_mentions_paper_values(self, result):
        assert "28±3.4" in result.format()


class TestFig64:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "fig-6.4",
            points=fig_6_4.points(max_round=200, step=20, simulate=False),
        )

    def test_bound_curves_decreasing(self, result):
        for curve in result.bound_curves.values():
            assert curve == sorted(curve, reverse=True)

    def test_half_life_near_70(self, result):
        for loss, rounds in result.half_lives().items():
            assert 55 < rounds < 75

    def test_loss_insensitivity(self, result):
        final = [curve[-1] for curve in result.bound_curves.values()]
        assert max(final) - min(final) < 0.05


class TestConnectivityExp:
    def test_paper_row(self):
        result = registry.execute(
            "connectivity",
            points=connectivity_exp.points(
                losses=(0.01,), deltas=(0.01,), epsilons=(1e-30,), simulate=False
            ),
        )
        assert result.lookup(0.01, 0.01, 1e-30) == 26

    def test_format(self):
        result = registry.execute(
            "connectivity",
            points=connectivity_exp.points(
                losses=(0.01,), epsilons=(1e-10,), simulate=False
            ),
        )
        assert "min dL" in result.format()


class TestLemma75:
    def test_lossless_simple_uniform(self):
        checks = lemma_7_5.run_lossless_simple()
        assert checks.doubly_stochastic
        assert checks.reversible
        assert checks.stationary_uniform
        assert checks.membership_uniform_spread < 1e-10

    def test_multiedge_caveat(self):
        checks = lemma_7_5.run_lossless_multiedge()
        assert not checks.stationary_uniform
        assert checks.membership_uniform_spread < 1e-10  # Lemma 7.6 exact

    def test_lossy_ergodic(self):
        checks = lemma_7_5.run_lossy(0.3)
        assert checks.irreducible and checks.aperiodic

    def test_lossy_requires_partial_loss(self):
        with pytest.raises(ValueError):
            lemma_7_5.run_lossy(0.0)


class TestTemporalBounds:
    def test_rows_cover_sizes_and_losses(self):
        result = temporal_exp.run_bounds(sizes=(1000, 10000), losses=(0.0, 0.01))
        assert len(result.rows) == 4

    def test_slogn_scaling(self):
        result = temporal_exp.run_bounds(sizes=(10**3, 10**6), losses=(0.0,))
        ratios = [
            bound / (s * math.log(n)) for n, s, _, bound in result.rows
        ]
        assert max(ratios) / min(ratios) < 1.5


class TestIndependenceBoundTable:
    def test_renders(self):
        text = independence_exp.bound_table()
        assert "α" in text
