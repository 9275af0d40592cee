"""Tests for repro.net.loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.decay import id_survival_bound
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.net.loss import GilbertElliottLoss, NoLoss, PartitionLoss, UniformLoss
from repro.util.rng import make_rng


def parent_is_lost(rate, rng):
    """The verdict body each stateless model carried before they shared
    ``LossModel.is_lost``."""
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

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf"), float("-inf")])
    def test_every_out_of_range_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="loss rate"):
            UniformLoss(bad)

    @pytest.mark.parametrize("rate, draws", [(0.0, 0), (0.3, 1), (1.0, 0)])
    def test_one_coin_only_strictly_inside_the_bounds(self, rate, draws):
        rng, twin = make_rng(8), make_rng(8)
        UniformLoss(rate).is_lost(0, 1, rng)
        twin.random(draws)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_no_loss_subclass(self):
        assert NoLoss().rate_for(0, 1) == 0.0

    @pytest.mark.parametrize(
        "model, text",
        [
            (UniformLoss(0.3), "UniformLoss(rate=0.3)"),
            (NoLoss(), "NoLoss()"),
            (
                GilbertElliottLoss(0.1, 0.3, 0.0, 0.8),
                "GilbertElliottLoss(p_gb=0.1, p_bg=0.3, good=0.0, bad=0.8)",
            ),
        ],
        ids=["uniform", "no-loss", "gilbert-elliott"],
    )
    def test_repr_names_the_parameters(self, model, text):
        assert repr(model) == text


class TestGilbertElliott:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(bad_loss=-0.1)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    @pytest.mark.parametrize(
        "name", ["p_good_to_bad", "p_bad_to_good", "good_loss", "bad_loss"]
    )
    def test_each_parameter_range_checked(self, name, bad):
        with pytest.raises(ValueError, match=name):
            GilbertElliottLoss(**{name: bad})

    def test_stateful_model_has_no_rate(self):
        assert GilbertElliottLoss().rate_for(0, 1) is None

    @pytest.mark.parametrize("loss", [0.0, 1.0])
    def test_equal_state_losses_ignore_the_channel(self, loss):
        model = GilbertElliottLoss(0.5, 0.5, good_loss=loss, bad_loss=loss)
        rng = make_rng(9)
        assert {model.is_lost(s % 5, 1, rng) for s in range(500)} == {bool(loss)}

    def test_empirical_rate_near_stationary(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.1, p_bad_to_good=0.3, good_loss=0.0, bad_loss=0.8
        )
        # stationary bad = 0.1/0.4 = 0.25; rate = 0.25*0.8 = 0.2
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["cross_loss", "base_loss"])
    def test_non_finite_rates_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            PartitionLoss({}, **{name: bad})

    @settings(max_examples=100, deadline=None)
    @given(
        groups=st.dictionaries(nodes, st.integers(0, 3)),
        cross=rates,
        base=rates,
        sender=nodes,
        target=nodes,
    )
    def test_rate_is_symmetric_and_one_of_the_two(self, groups, cross, base, sender, target):
        model = PartitionLoss(groups, cross_loss=cross, base_loss=base)
        rate = model.rate_for(sender, target)
        assert rate == model.rate_for(target, sender)
        same = groups.get(sender, 0) == groups.get(target, 0)
        assert rate == (base if same else cross)

    def test_repr_follows_the_state(self):
        model = PartitionLoss({0: 0, 1: 1, 2: 2}, cross_loss=1.0, base_loss=0.05)
        assert "3 groups, split" in repr(model)
        model.heal()
        assert "healed" in repr(model)


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
