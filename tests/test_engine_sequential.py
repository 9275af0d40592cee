"""Tests for repro.engine.sequential."""

import pytest

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.experiments.common import build_sf_system
from repro.net.loss import GilbertElliottLoss, UniformLoss

from conftest import build_system


class TestStepping:
    def test_step_requires_nodes(self):
        engine = SequentialEngine(SendForget(SFParams(view_size=8)))
        with pytest.raises(RuntimeError):
            engine.step()

    def test_run_actions_counts(self, small_params):
        protocol, engine = build_system(10, small_params)
        engine.run_actions(37)
        assert engine.stats.actions == 37
        assert protocol.stats.actions == 37

    def test_run_rounds_scales_with_population(self, small_params):
        protocol, engine = build_system(10, small_params)
        engine.run_rounds(3)
        assert engine.stats.actions == 30
        assert engine.rounds_completed == pytest.approx(3.0)

    def test_negative_counts_rejected(self, small_params):
        _, engine = build_system(5, small_params)
        for bad in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                engine.run_actions(bad)
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                engine.run_rounds(bad)
        assert engine.stats.actions == 0

    def test_deterministic_given_seed(self, small_params):
        protocol_a, engine_a = build_system(15, small_params, seed=9)
        protocol_b, engine_b = build_system(15, small_params, seed=9)
        engine_a.run_rounds(20)
        engine_b.run_rounds(20)
        assert protocol_a.export_graph() == protocol_b.export_graph()

    def test_different_seeds_diverge(self, small_params):
        protocol_a, engine_a = build_system(15, small_params, seed=1)
        protocol_b, engine_b = build_system(15, small_params, seed=2)
        engine_a.run_rounds(20)
        engine_b.run_rounds(20)
        assert protocol_a.export_graph() != protocol_b.export_graph()


class TestLossAccounting:
    def test_no_loss_delivers_everything(self, small_params):
        _, engine = build_system(10, small_params)
        engine.run_rounds(10)
        assert engine.stats.messages_lost == 0
        assert engine.stats.messages_delivered == engine.stats.messages_sent

    def test_full_loss_delivers_nothing(self, small_params):
        _, engine = build_system(10, small_params, loss_rate=1.0)
        engine.run_rounds(10)
        assert engine.stats.messages_delivered == 0
        assert engine.stats.messages_lost == engine.stats.messages_sent

    def test_loss_fraction_tracks_rate(self, small_params):
        _, engine = build_system(30, small_params, loss_rate=0.2, seed=5)
        engine.run_rounds(100)
        assert abs(engine.stats.loss_fraction() - 0.2) < 0.03

    def test_departed_target_tracked_separately_from_loss(self, small_params):
        protocol, engine = build_system(10, small_params)
        protocol.remove_node(3)
        engine.run_rounds(20)
        # Messages to node 3 evaporate, but that is the leave model, not
        # network loss — they land in their own counter.
        assert engine.stats.messages_to_departed > 0
        assert engine.stats.messages_lost == 0

    def test_loss_fraction_excludes_departed_targets(self, small_params):
        protocol, engine = build_system(10, small_params)
        protocol.remove_node(3)
        engine.run_rounds(20)
        assert engine.stats.loss_fraction() == 0.0
        accounted = (
            engine.stats.messages_delivered
            + engine.stats.messages_lost
            + engine.stats.messages_to_departed
        )
        assert accounted == engine.stats.messages_sent

    def test_loss_fraction_unbiased_under_churn(self, small_params):
        _, engine = build_system(30, small_params, loss_rate=0.2, seed=5)
        engine.protocol.remove_node(7)
        engine.protocol.remove_node(19)
        engine.run_rounds(100)
        assert engine.stats.messages_to_departed > 0
        # ℓ estimate stays near the network rate despite departures.
        assert abs(engine.stats.loss_fraction() - 0.2) < 0.03


class TestHooks:
    def test_hook_fires_on_schedule(self, small_params):
        _, engine = build_system(10, small_params)
        fired = []
        engine.add_round_hook(2, lambda eng, r: fired.append(r))
        engine.run_rounds(7)
        assert fired == [2, 4, 6]

    def test_multiple_hooks(self, small_params):
        _, engine = build_system(10, small_params)
        a, b = [], []
        engine.add_round_hook(3, lambda eng, r: a.append(r))
        engine.add_round_hook(5, lambda eng, r: b.append(r))
        engine.run_rounds(10)
        assert a == [3, 6, 9]
        assert b == [5, 10]

    def test_invalid_hook_interval(self, small_params):
        _, engine = build_system(5, small_params)
        with pytest.raises(ValueError):
            engine.add_round_hook(0, lambda eng, r: None)


class TestRoundBoundaries:
    """Where a round ends, in actions — recorded on ``backend="reference"``
    at the commit before the engine's two loops became one."""

    PARAMS = SFParams(view_size=12, d_low=2)

    @pytest.mark.parametrize("backend", ["reference", "reference-kernel", "array"])
    @pytest.mark.parametrize(
        "join,leave,expected",
        [
            (3, 1, [60, 122, 186, 252, 320, 390]),
            # Shorter and shorter rounds, and six of them is all that runs
            # (the kernel path used to spend the action count of six
            # *initial* rounds: 360 actions, 6.6 rounds).
            (0, 2, [60, 118, 174, 228, 280, 330]),
        ],
    )
    def test_hook_changes_the_population(self, backend, join, leave, expected):
        protocol, engine = build_sf_system(
            60, self.PARAMS, loss_rate=0.05, seed=11, backend=backend
        )
        fired = []
        fresh = iter(range(60, 1000))

        def hook(eng, _round):
            fired.append(eng.stats.actions)
            for _ in range(join):
                protocol.add_node(next(fresh), protocol.node_ids()[:4])
            for _ in range(leave):
                protocol.remove_node(protocol.node_ids()[0])

        engine.add_round_hook(1, hook)
        engine.run_rounds(6)
        assert fired == expected
        assert engine.stats.actions == expected[-1]

    def test_round_clock_accumulates_per_action(self):
        # 1/300 added 180 000 times falls short of 600 by more than the
        # 1e-12 slack, so each segment takes one more action to end — the
        # per-action float sum decides that, and must keep deciding it.
        _, engine = build_sf_system(300, self.PARAMS, loss_rate=0.05, seed=11)
        engine.run_rounds(600)
        assert engine.stats.actions == 180_001
        engine.run_rounds(600)
        assert engine.stats.actions == 360_002
        assert repr(engine.rounds_completed) == "1200.0066666656078"


class TestDefaults:
    def test_default_loss_is_lossless(self):
        protocol = SendForget(SFParams(view_size=8))
        protocol.add_node(0, [1, 2])
        protocol.add_node(1, [0, 2])
        protocol.add_node(2, [0, 1])
        engine = SequentialEngine(protocol, seed=0)
        engine.run_rounds(5)
        assert engine.stats.messages_lost == 0

    def test_loss_is_the_channels_model(self, small_params):
        """A stateful model given at construction decides every send on
        the object path; the transport holds the one copy."""
        protocol, _ = build_system(30, small_params)
        loss = GilbertElliottLoss(1.0, 0.0, good_loss=0.0, bad_loss=1.0)
        engine = SequentialEngine(protocol, loss, seed=1)
        assert engine.loss is engine.transport.loss is loss
        engine.run_rounds(2)
        assert engine.stats.messages_lost == engine.stats.messages_sent > 0

    @pytest.mark.parametrize("backend", ["reference", "array"])
    def test_loss_cannot_be_swapped_after_construction(self, small_params, backend):
        """Reassigning ``loss`` is an error, not a model the object path
        would silently ignore."""
        _, engine = build_sf_system(30, small_params, backend=backend)
        with pytest.raises(AttributeError):
            engine.loss = UniformLoss(1.0)
        assert engine.loss.rate == 0.0
