"""Tests for repro.protocols.pushpull."""

import pytest

from repro.engine.sequential import SequentialEngine
from repro.net.loss import UniformLoss
from repro.protocols.base import Message
from repro.protocols.pushpull import PushPullProtocol
from repro.util.rng import make_rng


def make_system(n=20, view_size=8, loss=0.0, seed=0):
    protocol = PushPullProtocol(view_size=view_size)
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 5)])
    engine = SequentialEngine(protocol, UniformLoss(loss), seed=seed)
    return protocol, engine


class TestConstruction:
    def test_invalid_view_size(self):
        with pytest.raises(ValueError):
            PushPullProtocol(view_size=1)


class TestPushPull:
    def test_request_pushes_own_id(self):
        protocol = PushPullProtocol(view_size=8)
        protocol.add_node(0, [1, 2])
        (effect,) = protocol.initiate_effects(0, make_rng(0))
        message = effect.message
        assert message.kind == "pushpull-request"
        assert message.payload == [(0, False)]

    def test_request_produces_reply(self):
        protocol = PushPullProtocol(view_size=8)
        protocol.add_node(0, [1])
        protocol.add_node(1, [2, 3])
        (sent,) = protocol.initiate_effects(0, make_rng(0))
        (answer,) = protocol.deliver_effects(sent.message, make_rng(1))
        assert answer.reply
        reply = answer.message
        assert reply.kind == "pushpull-reply"
        assert reply.target == 0

    def test_reply_id_absorbed_by_initiator(self):
        protocol = PushPullProtocol(view_size=8)
        protocol.add_node(0, [1])
        protocol.add_node(1, [2])
        protocol.add_node(2, [0])
        (sent,) = protocol.initiate_effects(0, make_rng(0))
        (answer,) = protocol.deliver_effects(sent.message, make_rng(1))
        protocol.deliver_effects(answer.message, make_rng(2))
        # 0 pulled some id from 1's view.
        assert protocol.outdegree(0) >= 1

    def test_sender_keeps_target(self):
        protocol = PushPullProtocol(view_size=8)
        protocol.add_node(0, [1, 2])
        before = dict(protocol.view_of(0))
        protocol.initiate_effects(0, make_rng(0))
        assert dict(protocol.view_of(0)) == before

    def test_full_view_replacement(self):
        protocol = PushPullProtocol(view_size=2)
        protocol.add_node(0, [1])
        protocol.add_node(1, [2, 3])
        (sent,) = protocol.initiate_effects(0, make_rng(0))
        protocol.deliver_effects(sent.message, make_rng(1))
        assert protocol.outdegree(1) == 2
        assert 0 in protocol.view_of(1)

    def test_self_pointer_never_stored(self):
        protocol = PushPullProtocol(view_size=4)
        protocol.add_node(0, [1])
        message = Message(sender=0, target=0, payload=[(0, False)], kind="pushpull-reply")
        protocol.deliver_effects(message, make_rng(0))
        assert 0 not in protocol.view_of(0)

    def test_loss_degrades_to_push_only(self):
        # With reply loss the push half still lands: representation stays up.
        protocol, engine = make_system(loss=0.5, seed=5)
        engine.run_rounds(60)
        assert protocol.total_edges() > 0
        assert all(protocol.outdegree(u) > 0 for u in protocol.node_ids())

    def test_empty_view_is_self_loop(self):
        protocol = PushPullProtocol(view_size=4)
        protocol.add_node(0, [])
        assert protocol.initiate_effects(0, make_rng(0)) == ()
