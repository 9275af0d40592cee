"""Tests for repro.core.variants (the §5 optimizations)."""

import pytest

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.core.variants import SendForgetVariant
from repro.engine.sequential import SequentialEngine
from repro.net.loss import UniformLoss
from repro.util.rng import make_rng


def build(variant_kwargs=None, n=60, view_size=16, d_low=6, loss=0.05, seed=0):
    protocol = SendForgetVariant(
        SFParams(view_size=view_size, d_low=d_low), **(variant_kwargs or {})
    )
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 11)])
    engine = SequentialEngine(protocol, UniformLoss(loss), seed=seed)
    return protocol, engine


class TestConstruction:
    def test_invalid_ids_per_message(self):
        with pytest.raises(ValueError):
            SendForgetVariant(SFParams(view_size=8), ids_per_message=0)

    def test_ids_per_message_bounded_by_view(self):
        with pytest.raises(ValueError):
            SendForgetVariant(SFParams(view_size=6), ids_per_message=6)

    def test_odd_bootstrap_rejected(self):
        protocol = SendForgetVariant(SFParams(view_size=8))
        with pytest.raises(ValueError):
            protocol.add_node(0, [1, 2, 3])


class TestDefaultMatchesBase:
    """With all flags off, the variant is behaviorally identical to S&F."""

    def test_same_trajectory_as_base(self):
        base = SendForget(SFParams(view_size=12, d_low=2))
        variant = SendForgetVariant(SFParams(view_size=12, d_low=2))
        n = 20
        for protocol in (base, variant):
            for u in range(n):
                protocol.add_node(u, [(u + k) % n for k in range(1, 7)])
        rng_a = make_rng(99)
        rng_b = make_rng(99)
        for step in range(2000):
            node = step % n
            effects_a = base.initiate_effects(node, rng_a)
            effects_b = variant.initiate_effects(node, rng_b)
            assert len(effects_a) == len(effects_b)
            for effect_a, effect_b in zip(effects_a, effects_b):
                message_a, message_b = effect_a.message, effect_b.message
                assert message_a.target == message_b.target
                assert message_a.payload == message_b.payload
                base.deliver_effects(message_a, rng_a)
                variant.deliver_effects(message_b, rng_b)
        for u in range(n):
            assert base.view_of(u) == variant.view_of(u)

    def test_same_stats_as_base(self):
        base = SendForget(SFParams(view_size=12, d_low=2))
        variant = SendForgetVariant(SFParams(view_size=12, d_low=2))
        n = 20
        for protocol in (base, variant):
            for u in range(n):
                protocol.add_node(u, [(u + k) % n for k in range(1, 7)])
        SequentialEngine(base, UniformLoss(0.1), seed=7).run_rounds(100)
        SequentialEngine(variant, UniformLoss(0.1), seed=7).run_rounds(100)
        assert base.stats.duplications == variant.stats.duplications
        assert base.stats.deletions == variant.stats.deletions


class TestMarkAndUndelete:
    def test_undeletions_replace_duplications(self):
        plain, plain_engine = build({}, loss=0.1, seed=3)
        marked, marked_engine = build({"mark_and_undelete": True}, loss=0.1, seed=3)
        plain_engine.run_rounds(150)
        marked_engine.run_rounds(150)
        assert marked.undeletion_count() > 0
        # Undeletion absorbs much of the repair load, so fewer duplications.
        assert marked.stats.duplications < plain.stats.duplications

    def test_lower_dependence_than_duplication(self):
        plain, plain_engine = build({}, loss=0.1, seed=4)
        marked, marked_engine = build({"mark_and_undelete": True}, loss=0.1, seed=4)
        plain_engine.run_rounds(200)
        marked_engine.run_rounds(200)
        # Not strictly ordered in every run, but should not be far worse.
        assert marked.dependent_fraction() < plain.dependent_fraction() + 0.05

    def test_invariant(self):
        marked, engine = build({"mark_and_undelete": True}, loss=0.1, seed=5)
        engine.run_rounds(100)
        marked.check_invariant()

    def test_marked_count_tracked(self):
        marked, engine = build({"mark_and_undelete": True}, loss=0.05, seed=6)
        engine.run_rounds(50)
        assert any(marked.marked_count(u) > 0 for u in marked.node_ids())


class TestReplaceOnFull:
    def test_no_classic_deletions(self):
        replacing, engine = build({"replace_on_full": True}, loss=0.0, seed=7)
        engine.run_rounds(150)
        assert replacing.stats.deletions == 0

    def test_replacements_counted_when_saturated(self):
        # Lossless + small view: views saturate and replacements kick in.
        replacing = SendForgetVariant(
            SFParams(view_size=8, d_low=2), replace_on_full=True
        )
        n = 40
        for u in range(n):
            replacing.add_node(u, [(u + k) % n for k in range(1, 7)])
        SequentialEngine(replacing, UniformLoss(0.0), seed=8).run_rounds(150)
        assert replacing.replacement_count() > 0

    def test_invariant(self):
        replacing, engine = build({"replace_on_full": True}, loss=0.05, seed=9)
        engine.run_rounds(100)
        replacing.check_invariant()


class TestWideMessages:
    def test_payload_width(self):
        wide, _ = build({"ids_per_message": 3}, seed=10)
        rng = make_rng(0)
        effects = ()
        while not effects:
            effects = wide.initiate_effects(0, rng)
        assert len(effects[0].message.payload) == 4  # sender id + 3 payload ids

    def test_fewer_messages_per_id_moved(self):
        narrow, narrow_engine = build({}, loss=0.0, seed=11)
        wide, wide_engine = build({"ids_per_message": 3}, loss=0.0, seed=11)
        narrow_engine.run_rounds(100)
        wide_engine.run_rounds(100)
        # Total ids shipped per message is higher for the wide variant.
        assert wide.stats.messages_sent < narrow.stats.messages_sent * 1.05
        narrow_per_message = 2.0
        wide_per_message = 4.0
        assert wide_per_message > narrow_per_message

    def test_invariant(self):
        wide, engine = build({"ids_per_message": 2}, loss=0.05, seed=12)
        engine.run_rounds(100)
        wide.check_invariant()


class TestCombined:
    def test_all_optimizations_together(self):
        protocol, engine = build(
            {"mark_and_undelete": True, "replace_on_full": True, "ids_per_message": 3},
            loss=0.1,
            seed=13,
        )
        engine.run_rounds(150)
        protocol.check_invariant()
        assert protocol.stats.deletions == 0
        assert all(protocol.outdegree(u) > 0 for u in protocol.node_ids())
