"""Tests for repro.protocols.push."""

import pytest

from repro.engine.sequential import SequentialEngine
from repro.net.loss import UniformLoss
from repro.protocols.push import PushProtocol
from repro.util.rng import make_rng


def make_system(n=20, view_size=8, loss=0.0, seed=0):
    protocol = PushProtocol(view_size=view_size, gossip_length=2)
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 5)])
    engine = SequentialEngine(protocol, UniformLoss(loss), seed=seed)
    return protocol, engine


class TestConstruction:
    def test_invalid_view_size(self):
        with pytest.raises(ValueError):
            PushProtocol(view_size=1)

    def test_invalid_gossip_length(self):
        with pytest.raises(ValueError):
            PushProtocol(view_size=8, gossip_length=9)


class TestPush:
    def test_sender_keeps_ids(self):
        protocol = PushProtocol(view_size=8, gossip_length=2)
        protocol.add_node(0, [1, 2, 3])
        protocol.add_node(1, [0])
        before = protocol.outdegree(0)
        protocol.initiate_effects(0, make_rng(0))
        assert protocol.outdegree(0) == before

    def test_payload_includes_own_id(self):
        protocol = PushProtocol(view_size=8, gossip_length=2)
        protocol.add_node(0, [1, 2])
        (effect,) = protocol.initiate_effects(0, make_rng(0))
        message = effect.message
        assert message.payload[0][0] == 0

    def test_receiver_absorbs(self):
        protocol = PushProtocol(view_size=8, gossip_length=0)
        protocol.add_node(0, [1])
        protocol.add_node(1, [2])
        (effect,) = protocol.initiate_effects(0, make_rng(0))
        message = effect.message
        protocol.deliver_effects(message, make_rng(1))
        assert 0 in protocol.view_of(1)

    def test_full_view_evicts(self):
        protocol = PushProtocol(view_size=2, gossip_length=0)
        protocol.add_node(0, [1])
        protocol.add_node(1, [2, 3])
        (effect,) = protocol.initiate_effects(0, make_rng(0))
        message = effect.message
        protocol.deliver_effects(message, make_rng(1))
        assert protocol.outdegree(1) == 2
        assert 0 in protocol.view_of(1)
        assert protocol.stats.deletions >= 1

    def test_loss_immune_edge_count(self):
        protocol, engine = make_system(loss=0.5, seed=1)
        engine.run_rounds(60)
        # Views saturate at capacity; loss never drains the system.
        assert protocol.total_edges() >= 20 * 4

    def test_empty_view_is_self_loop(self):
        protocol = PushProtocol(view_size=4)
        protocol.add_node(0, [])
        assert protocol.initiate_effects(0, make_rng(0)) == ()

    def test_never_stores_self_pointer(self):
        protocol, engine = make_system(loss=0.0, seed=2)
        engine.run_rounds(40)
        for u in protocol.node_ids():
            assert u not in protocol.view_of(u)
