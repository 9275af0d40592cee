"""Tests for the extension experiments (reduced sizes).

Covers: message load, view regimes, and the exact mixing validation.
"""

import pytest

from repro.experiments import message_load, registry, view_regimes


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
