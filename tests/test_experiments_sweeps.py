"""Tests for the sweep experiment runners (reduced sizes) and the
partition loss model."""

import pytest

from repro.experiments import loss_sweep, parameter_sweep, registry
from repro.net.loss import PartitionLoss
from repro.util.rng import make_rng


class TestLossSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "loss-sweep", points=loss_sweep.points(losses=(0.0, 0.02, 0.1))
        )

    def test_rows_match_losses(self, result):
        assert [row.loss_rate for row in result.rows] == [0.0, 0.02, 0.1]

    def test_lemma_6_4_monotone(self, result):
        outdegrees = result.outdegrees()
        assert outdegrees == sorted(outdegrees, reverse=True)

    def test_alpha_matches_formula(self, result):
        for row in result.rows:
            assert row.alpha_bound == pytest.approx(
                max(0.0, 1 - 2 * (row.loss_rate + 0.01))
            )

    def test_format(self, result):
        assert "operating envelope" in result.format()


class TestParameterSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "parameter-sweep",
            points=parameter_sweep.points(d_lows=(10, 18), view_sizes=(32, 40)),
        )

    def test_infeasible_cells_skipped(self):
        # 30 > 32 - 6: the builder drops the pair before it becomes a cell
        assert parameter_sweep.points(d_lows=(30,), view_sizes=(32,)) == []

    def test_cell_lookup(self, result):
        cell = result.cell(18, 40)
        assert cell.expected_outdegree > 18

    def test_missing_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell(99, 40)

    def test_helpers(self, result):
        dup = parameter_sweep.duplication_along_d_low(result, 32)
        assert [d for d, _ in dup] == [10, 18]
        dele = parameter_sweep.deletion_along_view_size(result, 10)
        assert [s for s, _ in dele] == [32, 40]


class TestPartitionLoss:
    def test_cross_messages_lost_while_split(self):
        loss = PartitionLoss({0: 0, 1: 1})
        rng = make_rng(0)
        assert loss.is_lost(0, 1, rng)
        assert not loss.is_lost(0, 0, rng)

    def test_heal_restores_traffic(self):
        loss = PartitionLoss({0: 0, 1: 1})
        loss.heal()
        rng = make_rng(0)
        assert not loss.is_lost(0, 1, rng)
        loss.split()
        assert loss.is_lost(0, 1, rng)

    def test_partial_cross_loss(self):
        loss = PartitionLoss({0: 0, 1: 1}, cross_loss=0.5)
        rng = make_rng(1)
        outcomes = [loss.is_lost(0, 1, rng) for _ in range(4000)]
        assert abs(sum(outcomes) / 4000 - 0.5) < 0.03

    def test_base_loss_applies_inside_group(self):
        loss = PartitionLoss({0: 0, 1: 0}, base_loss=1.0)
        rng = make_rng(2)
        assert loss.is_lost(0, 1, rng)

    def test_unknown_nodes_use_default_group(self):
        loss = PartitionLoss({0: 1})
        rng = make_rng(3)
        # 5 and 6 both default to group 0: intra-group.
        assert not loss.is_lost(5, 6, rng)
        assert loss.is_lost(0, 5, rng)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            PartitionLoss({}, cross_loss=1.5)
        with pytest.raises(ValueError):
            PartitionLoss({}, base_loss=-0.1)

