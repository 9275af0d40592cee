"""Tests for repro.net.loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.decay import id_survival_bound
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.net.loss import (
    CorrelatedLoss,
    GilbertElliottLoss,
    NoLoss,
    PartitionLoss,
    PerLinkLoss,
    TargetedLoss,
    TopologyLoss,
    UniformLoss,
)
from repro.util.rng import make_rng


def parent_is_lost(rate, rng):
    """The body four stateless models each carried at the parent (PerLinkLoss
    had no guards, so it drew at rates 0 and 1: the one permitted difference)."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return bool(rng.random() < rate)


rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
nodes = st.integers(0, 9)


@settings(max_examples=200, deadline=None)
@given(rate=rates, base=rates, sender=nodes, target=nodes, seed=st.integers(0, 2**32 - 1))
def test_shared_verdict_matches_the_parent_bodies(rate, base, sender, target, seed):
    for model in (
        UniformLoss(rate),
        PartitionLoss({n: n % 2 for n in range(10)}, cross_loss=rate, base_loss=base),
        TargetedLoss([3, 4], victim_loss=rate, base_loss=base),
        TopologyLoss({n: frozenset([(n + 1) % 10]) for n in range(10)}, edge_loss=rate),
        PerLinkLoss({(2, 5): rate}, default_rate=base),
    ):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        rate_here = model.rate_for(sender, target)
        assert model.is_lost(sender, target, got) == parent_is_lost(rate_here, want)
        assert got.bit_generator.state == want.bit_generator.state  # same draws


class TestUniformLoss:
    def test_zero_never_loses(self):
        model = UniformLoss(0.0)
        rng = make_rng(0)
        assert not any(model.is_lost(0, 1, rng) for _ in range(200))

    def test_one_always_loses(self):
        model = UniformLoss(1.0)
        rng = make_rng(0)
        assert all(model.is_lost(0, 1, rng) for _ in range(200))

    def test_rate_approximated(self):
        model = UniformLoss(0.3)
        rng = make_rng(1)
        losses = sum(model.is_lost(0, 1, rng) for _ in range(20000))
        assert abs(losses / 20000 - 0.3) < 0.02

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            UniformLoss(-0.1)
        with pytest.raises(ValueError):
            UniformLoss(1.1)

    def test_expected_rate(self):
        assert UniformLoss(0.25).expected_rate() == 0.25

    def test_no_loss_subclass(self):
        assert NoLoss().expected_rate() == 0.0


class TestGilbertElliott:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(bad_loss=-0.1)

    def test_stationary_rate(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.1, p_bad_to_good=0.3, good_loss=0.0, bad_loss=0.8
        )
        # stationary bad = 0.1/0.4 = 0.25; rate = 0.25*0.8 = 0.2
        assert model.expected_rate() == pytest.approx(0.2)

    def test_empirical_rate_near_stationary(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.1, p_bad_to_good=0.3, good_loss=0.0, bad_loss=0.8
        )
        rng = make_rng(2)
        losses = sum(model.is_lost(0, 1, rng) for _ in range(40000))
        assert abs(losses / 40000 - 0.2) < 0.02

    def test_burstiness(self):
        """Consecutive losses cluster more than under i.i.d. loss."""
        model = GilbertElliottLoss(
            p_good_to_bad=0.02, p_bad_to_good=0.1, good_loss=0.0, bad_loss=0.9
        )
        rng = make_rng(3)
        outcomes = [model.is_lost(0, 1, rng) for _ in range(40000)]
        rate = sum(outcomes) / len(outcomes)
        joint = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a and b
        ) / (len(outcomes) - 1)
        # P(loss now AND loss next) far exceeds rate^2 when bursty.
        assert joint > 2 * rate**2

    def test_per_sender_state(self):
        model = GilbertElliottLoss()
        rng = make_rng(4)
        model.is_lost(0, 1, rng)
        model.is_lost(5, 1, rng)
        assert set(model._bad_state) == {0, 5}

    def test_reset_clears_channel_state(self):
        model = GilbertElliottLoss(p_good_to_bad=0.9, p_bad_to_good=0.1)
        rng = make_rng(5)
        for sender in range(20):
            model.is_lost(sender, 0, rng)
        assert model._bad_state  # state accumulated across senders
        model.reset()
        assert model._bad_state == {}

    def test_reset_isolates_replications(self):
        """After reset(), a reused instance replays exactly the run a
        fresh instance would produce (equal-seeded RNGs)."""
        reused = GilbertElliottLoss(0.2, 0.3, 0.0, 0.9)
        rng = make_rng(6)
        first = [reused.is_lost(s % 7, 1, rng) for s in range(500)]
        reused.reset()
        rng_replay = make_rng(6)
        replay = [reused.is_lost(s % 7, 1, rng_replay) for s in range(500)]
        assert replay == first
        # Without the reset, the leaked channel state changes the run.
        rng_leaky = make_rng(6)
        leaky = [reused.is_lost(s % 7, 1, rng_leaky) for s in range(500)]
        assert leaky != first

    def test_base_model_reset_is_a_noop(self):
        UniformLoss(0.3).reset()
        PerLinkLoss({(0, 1): 0.5}).reset()


class TestPerLinkLoss:
    def test_specific_link_rate(self):
        model = PerLinkLoss({(0, 1): 1.0}, default_rate=0.0)
        rng = make_rng(0)
        assert model.is_lost(0, 1, rng)
        assert not model.is_lost(1, 0, rng)

    def test_default_rate_applies(self):
        model = PerLinkLoss({}, default_rate=1.0)
        rng = make_rng(0)
        assert model.is_lost(3, 4, rng)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            PerLinkLoss({(0, 1): 2.0})
        with pytest.raises(ValueError):
            PerLinkLoss({}, default_rate=-0.5)

    def test_expected_rate_average(self):
        model = PerLinkLoss({(0, 1): 0.2, (1, 0): 0.4})
        assert model.expected_rate() == pytest.approx(0.3)


class TestPartitionLoss:
    def test_cross_group_traffic_cut_while_split(self):
        model = PartitionLoss({0: 0, 1: 1}, cross_loss=1.0)
        rng = make_rng(0)
        assert model.is_lost(0, 1, rng) and model.is_lost(1, 0, rng)
        assert model.rate_for(0, 1) == 1.0

    def test_intra_group_traffic_sees_base_loss(self):
        model = PartitionLoss({0: 0, 1: 0, 2: 1}, cross_loss=1.0, base_loss=0.2)
        assert model.rate_for(0, 1) == 0.2
        assert model.rate_for(0, 2) == 1.0

    def test_heal_and_split_toggle_the_cut(self):
        model = PartitionLoss({0: 0, 1: 1}, cross_loss=0.9, base_loss=0.1)
        model.heal()
        assert not model.active
        assert model.rate_for(0, 1) == 0.1
        model.split()
        assert model.active
        assert model.rate_for(0, 1) == 0.9

    def test_unnamed_nodes_are_in_group_zero(self):
        model = PartitionLoss({5: 1})
        assert model.rate_for(7, 8) == 0.0  # both default to group 0
        assert model.rate_for(7, 5) == 1.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            PartitionLoss({}, cross_loss=1.5)
        with pytest.raises(ValueError):
            PartitionLoss({}, base_loss=-0.1)

    def test_expected_rate_and_repr_follow_the_state(self):
        model = PartitionLoss({0: 0, 1: 1, 2: 2}, cross_loss=1.0, base_loss=0.05)
        assert model.expected_rate() == 0.05
        assert "3 groups, split" in repr(model)
        model.heal()
        assert "healed" in repr(model)
        model.reset()  # stateless: the cut is scenario state, not channel state
        assert not model.active


class TestTargetedLoss:
    def test_victim_traffic_silenced_both_directions(self):
        model = TargetedLoss(victims=[3], victim_loss=1.0, base_loss=0.0)
        rng = make_rng(0)
        assert model.is_lost(3, 7, rng)  # victim sending
        assert model.is_lost(7, 3, rng)  # victim receiving
        assert not model.is_lost(7, 8, rng)

    def test_rate_for_exposes_fused_path(self):
        model = TargetedLoss(victims=[1, 2], victim_loss=0.9, base_loss=0.05)
        assert model.rate_for(1, 5) == 0.9
        assert model.rate_for(5, 2) == 0.9
        assert model.rate_for(5, 6) == 0.05

    def test_retarget_moves_the_adversary(self):
        model = TargetedLoss(victims=[1], victim_loss=1.0)
        model.retarget([2])
        assert model.rate_for(1, 5) == 0.0
        assert model.rate_for(2, 5) == 1.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            TargetedLoss([1], victim_loss=1.5)
        with pytest.raises(ValueError):
            TargetedLoss([1], base_loss=-0.1)

    def test_stateless_reset_noop(self):
        model = TargetedLoss([1])
        model.reset()
        assert model.rate_for(1, 2) == 1.0


class TestCorrelatedLoss:
    def test_burst_phase_loses_rest_delivers(self):
        model = CorrelatedLoss(period=4, burst=2, burst_loss=1.0, base_loss=0.0)
        rng = make_rng(0)
        verdicts = [model.is_lost(0, 1, rng) for _ in range(8)]
        assert verdicts == [True, True, False, False] * 2

    def test_reset_rewinds_to_cycle_origin(self):
        model = CorrelatedLoss(period=4, burst=2, burst_loss=1.0, base_loss=0.0)
        rng = make_rng(0)
        first = [model.is_lost(0, 1, rng) for _ in range(3)]
        model.reset()
        replay = [model.is_lost(0, 1, make_rng(0)) for _ in range(3)]
        assert replay == first == [True, True, False]

    def test_stateful_model_requests_in_order_path(self):
        assert CorrelatedLoss(period=4, burst=2).rate_for(0, 1) is None

    def test_expected_rate_mixes_phases(self):
        model = CorrelatedLoss(period=10, burst=3, burst_loss=1.0, base_loss=0.1)
        assert model.expected_rate() == pytest.approx(0.3 + 0.7 * 0.1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CorrelatedLoss(period=0, burst=0)
        with pytest.raises(ValueError):
            CorrelatedLoss(period=4, burst=5)
        with pytest.raises(ValueError):
            CorrelatedLoss(period=4, burst=2, burst_loss=1.2)


class TestTopologyLoss:
    def test_off_mask_edges_always_drop(self):
        model = TopologyLoss({0: frozenset([1]), 1: frozenset([0])})
        rng = make_rng(0)
        assert not model.is_lost(0, 1, rng)
        assert model.is_lost(0, 2, rng)
        assert model.rate_for(0, 2) == 1.0

    def test_symmetric_admission_from_one_sided_lists(self):
        model = TopologyLoss({0: frozenset([1])})  # 1 does not list 0
        assert model.rate_for(1, 0) == 0.0
        asym = TopologyLoss({0: frozenset([1])}, symmetric=False)
        assert asym.rate_for(1, 0) == 1.0

    def test_on_mask_edge_loss_applies(self):
        model = TopologyLoss({0: frozenset([1])}, edge_loss=1.0)
        assert model.rate_for(0, 1) == 1.0

    def test_invalid_edge_loss_rejected(self):
        with pytest.raises(ValueError):
            TopologyLoss({}, edge_loss=1.5)

    def test_stateless_reset_noop(self):
        model = TopologyLoss({0: frozenset([1])})
        model.reset()
        assert model.rate_for(0, 1) == 0.0


class TestPartitionTolerance:
    """S&F heals a split shorter than the id half-life, not a longer one.

    Halves of a warmed-up system are cut apart, then reconnected.  While
    split, each half keeps itself alive by duplication and the other
    half's ids drain from its views at the Lemma 6.10 rate; after the
    heal, surviving cross ids re-knit the overlay, and with none left the
    halves can never find each other again.
    """

    N = 100
    PARAMS = SFParams(view_size=16, d_low=6)
    SHORT, LONG = 15, 300

    @staticmethod
    def cross_edges(protocol, half):
        return sum(
            multiplicity
            for u in protocol.node_ids()
            for v, multiplicity in protocol.view_of(u).items()
            if (v < half) != (u < half)
        )

    @classmethod
    def split_cycle(cls, rounds_split, seed):
        half = cls.N // 2
        protocol = SendForget(cls.PARAMS)
        for u in range(cls.N):
            protocol.add_node(u, [(u + k) % cls.N for k in range(1, 11)])
        loss = PartitionLoss({u: int(u >= half) for u in range(cls.N)})
        loss.heal()  # healthy warm-up
        engine = SequentialEngine(protocol, loss, seed=seed)
        engine.run_rounds(80)
        before = cls.cross_edges(protocol, half)
        loss.split()
        engine.run_rounds(rounds_split)
        at_heal = cls.cross_edges(protocol, half)
        protocol.check_invariant()  # Observation 5.1 holds on each side
        loss.heal()
        engine.run_rounds(40)
        return {
            "survival": at_heal / max(before, 1),
            "at_heal": at_heal,
            "remerged": protocol.export_graph().is_weakly_connected(),
            "bound": id_survival_bound(
                rounds_split, cls.PARAMS.d_low, cls.PARAMS.view_size, 0.0, 0.05
            ),
        }

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            rounds: self.split_cycle(rounds, seed=90 + rounds)
            for rounds in (self.SHORT, self.LONG)
        }

    def test_short_split_heals(self, runs):
        assert runs[self.SHORT]["at_heal"] > 0
        assert runs[self.SHORT]["remerged"]

    def test_long_split_drains_every_cross_id_and_stays_split(self, runs):
        assert runs[self.LONG]["at_heal"] == 0
        assert not runs[self.LONG]["remerged"]

    def test_survival_decreases_with_split_length(self, runs):
        assert runs[self.SHORT]["survival"] > runs[self.LONG]["survival"]

    def test_survival_stays_under_the_lemma_6_10_bound(self, runs):
        for run in runs.values():
            assert run["survival"] <= run["bound"] + 0.05
