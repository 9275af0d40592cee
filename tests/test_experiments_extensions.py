"""Tests for the extension experiments (reduced sizes).

Covers: ablation of §5 optimizations, random walks, samplers, message
load, view regimes, and the exact mixing validation.
"""

import pytest

from repro.experiments import (
    ablation_variants,
    message_load,
    random_walk_exp,
    registry,
    sampler_exp,
    view_regimes,
)


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "ablation",
            points=ablation_variants.points(
                n=120, loss_rate=0.05, warmup_rounds=100, measure_rounds=80, seed=56
            ),
        )

    def test_all_variants_present(self, result):
        names = {row.name for row in result.rows}
        assert names == set(ablation_variants.VARIANTS)

    def test_undelete_reduces_duplication(self, result):
        assert result.row("mark-and-undelete").duplication < result.row("base").duplication
        assert result.row("mark-and-undelete").undeletions > 0

    def test_replace_removes_deletions(self, result):
        assert result.row("replace-on-full").deletion == 0.0

    def test_degrees_stay_above_floor(self, result):
        for row in result.rows:
            assert row.mean_outdegree >= result.params.d_low

    def test_lookup_missing(self, result):
        with pytest.raises(KeyError):
            result.row("nonexistent")


class TestRandomWalkExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "random-walks",
            points=random_walk_exp.points(
                n=150, attempts=600, warmup_rounds=80, bias_walk_length=150, seed=312
            ),
        )

    def test_success_matches_prediction(self, result):
        for loss, measured, predicted in result.success_rows:
            assert measured == pytest.approx(predicted, abs=0.07)

    def test_simple_walk_biased(self, result):
        assert result.simple_walk_hub_mass > 0.5

    def test_mh_walk_unbiased(self, result):
        assert result.mh_walk_hub_mass < 3 * result.uniform_hub_mass

    def test_view_lookup_unbiased(self, result):
        assert result.view_hub_mass < 4 * result.uniform_hub_mass

    def test_format(self, result):
        assert "random-walk success" in result.format()


class TestSamplerExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        (point,) = sampler_exp.points(n=80, epochs=5, rounds_per_epoch=20)
        return registry.execute("samplers", points=[{**point, "seed": 38}])

    def test_coverage_complete(self, result):
        assert result.epochs[-1].coverage == 1.0

    def test_sampler_changes_collapse(self, result):
        first = result.epochs[0].sampler_changes_per_round
        assert result.late_sampler_change_rate() < 0.3 * first

    def test_views_keep_evolving(self, result):
        assert result.late_view_turnover() > result.late_sampler_change_rate()

    def test_tvd_reasonable(self, result):
        assert result.final_tvd() < 0.4


class TestMessageLoad:
    @pytest.fixture(scope="class")
    def result(self):
        (point,) = message_load.points(
            n=200, warmup_rounds=100, measure_rounds=150
        )
        return registry.execute("message-load", points=[{**point, "seed": 94}])

    def test_positive_correlation(self, result):
        assert result.correlation > 0.15

    def test_load_balanced(self, result):
        assert result.load_cv < 0.25
        assert result.max_load_ratio < 2.0

    def test_format(self, result):
        assert "message load" in result.format()

    def test_counter_read_is_one_snapshot(self, monkeypatch):
        """The parent rebuilt the whole snapshot per node read: O(n²)."""
        from repro.kernel.array import ArrayKernel

        reads, snapshot = [], ArrayKernel.load_counts
        monkeypatch.setattr(
            ArrayKernel, "load_counts",
            lambda kernel, kind: reads.append(kind) or snapshot(kernel, kind),
        )
        registry.execute(
            "message-load",
            backend="array",
            points=message_load.points(
                n=60, warmup_rounds=5, measure_rounds=10, snapshots=10
            ),
        )
        assert reads == ["received"]


class TestViewRegimes:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "view-regimes",
            points=view_regimes.points(
                sizes=(80, 300), warmup_rounds=80, measure_rounds=60
            ),
        )

    def test_both_regimes_at_each_size(self, result):
        assert len(result.rows) == 4
        assert len(result.rows_for("constant")) == 2
        assert len(result.rows_for("logarithmic")) == 2

    def test_connected_everywhere(self, result):
        assert all(row.connected for row in result.rows)

    def test_matches_degree_mc(self, result):
        for row in result.rows:
            assert row.outdegree_mean == pytest.approx(
                row.mc_outdegree_mean, rel=0.08
            )

    def test_log_params_even_and_valid(self):
        for n in (50, 1000, 100000):
            params = view_regimes._log_params(n)
            assert params.view_size % 2 == 0
            assert params.d_low % 2 == 0
            assert params.d_low <= params.view_size - 6


class TestMixingValidation:
    def test_exact_validation(self):
        result = registry.execute(
            "mixing-exact", points=[{"loss": 0.3, "epsilon": 0.2}]
        )
        assert result.bound_holds()
        assert result.tau_epsilon <= result.worst_case_mixing + 1e-9
        assert result.spectral_gap > 0
        assert "Section 7.5" in result.format()
