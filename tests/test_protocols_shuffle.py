"""Tests for repro.protocols.shuffle."""

import pytest

from repro.engine.sequential import SequentialEngine
from repro.net.loss import UniformLoss
from repro.protocols.shuffle import ShuffleProtocol
from repro.util.rng import make_rng


def make_system(n=20, view_size=8, shuffle_length=3, loss=0.0, seed=0):
    protocol = ShuffleProtocol(view_size=view_size, shuffle_length=shuffle_length)
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 5)])
    engine = SequentialEngine(protocol, UniformLoss(loss), seed=seed)
    return protocol, engine


class TestConstruction:
    def test_invalid_view_size(self):
        with pytest.raises(ValueError):
            ShuffleProtocol(view_size=1)

    def test_invalid_shuffle_length(self):
        with pytest.raises(ValueError):
            ShuffleProtocol(view_size=8, shuffle_length=0)
        with pytest.raises(ValueError):
            ShuffleProtocol(view_size=8, shuffle_length=9)

    def test_oversized_bootstrap_rejected(self):
        protocol = ShuffleProtocol(view_size=4)
        with pytest.raises(ValueError):
            protocol.add_node(0, [1, 2, 3, 4, 5])

    def test_duplicate_node_rejected(self):
        protocol = ShuffleProtocol(view_size=4)
        protocol.add_node(0, [1])
        with pytest.raises(ValueError):
            protocol.add_node(0, [1])


class TestExchange:
    def test_request_removes_sent_ids(self):
        protocol = ShuffleProtocol(view_size=8, shuffle_length=3)
        protocol.add_node(0, [1, 2, 3, 4])
        protocol.add_node(1, [0, 2])
        (effect,) = protocol.initiate_effects(0, make_rng(0))
        message = effect.message
        # Target plus (shuffle_length - 1) payload ids left the view.
        assert protocol.outdegree(0) == 4 - len(message.payload)

    def test_request_carries_sender_id(self):
        protocol = ShuffleProtocol(view_size=8)
        protocol.add_node(0, [1, 2])
        protocol.add_node(1, [0])
        (effect,) = protocol.initiate_effects(0, make_rng(0))
        message = effect.message
        assert message.payload[0][0] == 0

    def test_reply_round_trip_conserves_ids_without_loss(self):
        protocol, engine = make_system(loss=0.0)
        initial = protocol.total_edges()
        engine.run_rounds(30)
        # Without loss a swap conserves ids except capacity-overflow drops.
        assert protocol.total_edges() >= initial - protocol.stats.deletions
        assert protocol.isolated_count() == 0

    def test_loss_causes_attrition(self):
        protocol, engine = make_system(loss=0.2, seed=2)
        initial = protocol.total_edges()
        engine.run_rounds(80)
        assert protocol.total_edges() < initial / 2

    def test_full_loss_starves_everyone(self):
        protocol, engine = make_system(loss=1.0, seed=3)
        engine.run_rounds(60)
        assert protocol.total_edges() == 0
        assert protocol.isolated_count() == len(protocol.node_ids())

    def test_isolated_node_is_self_loop(self):
        protocol = ShuffleProtocol(view_size=4)
        protocol.add_node(0, [])
        assert protocol.initiate_effects(0, make_rng(0)) == ()

    def test_never_stores_self_pointer(self):
        protocol, engine = make_system(loss=0.05, seed=4)
        engine.run_rounds(50)
        for u in protocol.node_ids():
            assert u not in protocol.view_of(u)
