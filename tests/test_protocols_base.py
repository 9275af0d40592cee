"""Tests for repro.protocols.base (interface-level behavior)."""

import inspect
import typing
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.net import loss, wire
from repro.protocols import PushPullProtocol
from repro.protocols.base import (
    GossipProtocol,
    ListViewProtocol,
    Message,
    ProtocolStats,
)
from repro.util.rng import make_rng

from conftest import build_system


class TestProtocolStats:
    def test_initial_zero(self):
        stats = ProtocolStats()
        assert stats.duplication_probability() == 0.0
        assert stats.deletion_probability() == 0.0

    def test_probabilities_conditioned_on_actions(self):
        stats = ProtocolStats(non_self_loop_actions=200, duplications=10, deletions=4)
        assert stats.duplication_probability() == pytest.approx(0.05)
        assert stats.deletion_probability() == pytest.approx(0.02)

    def test_reset(self):
        stats = ProtocolStats(actions=5, duplications=2, extra={"x": 1})
        stats.reset()
        assert stats.actions == 0
        assert stats.duplications == 0
        assert stats.extra == {}


class TestMessage:
    def test_fields(self):
        message = Message(sender=1, target=2, payload=[(1, False)], kind="push")
        assert message.sender == 1
        assert message.target == 2
        assert message.kind == "push"


class TestDefaultImplementations:
    def test_export_graph_includes_dangling(self):
        protocol = SendForget(SFParams(view_size=8, d_low=0))
        protocol.add_node(0, [7, 7])  # 7 never joined
        graph = protocol.export_graph()
        assert graph.has_node(7)
        assert graph.indegree(7) == 2

    def test_indegrees_cover_all_live_nodes(self, small_system):
        protocol, _ = small_system
        degrees = protocol.indegrees()
        assert set(degrees) == set(protocol.node_ids())

    def test_outdegree_helper_matches_view(self, small_system):
        protocol, _ = small_system
        for u in protocol.node_ids():
            assert protocol.outdegree(u) == sum(protocol.view_of(u).values())


def test_the_seam_says_each_thing_once():
    """Two steps, three wire records, one loss coin (+ one stateful model)."""
    assert not hasattr(GossipProtocol, "handle")
    assert len(typing.get_args(wire.WireRecord)) == 3
    assert inspect.getsource(loss).count("def is_lost") == 2


class TestEngineLoadCounters:
    def test_received_counts_accumulate(self, small_params):
        protocol, engine = build_system(20, small_params, seed=44)
        engine.run_rounds(30)
        received = engine.load_counts("received")
        assert sum(received.values()) == engine.stats.messages_delivered
        assert set(received) <= set(range(20))

    def test_sent_counts_accumulate(self, small_params):
        protocol, engine = build_system(20, small_params, seed=45)
        engine.run_rounds(30)
        assert sum(engine.load_counts("sent").values()) == (
            engine.stats.messages_sent + engine.stats.replies_sent
        )

    def test_loss_reduces_received_not_sent(self, small_params):
        protocol, engine = build_system(20, small_params, loss_rate=0.5, seed=46)
        engine.run_rounds(40)
        received, sent = map(engine.load_counts, ("received", "sent"))
        assert sum(received.values()) < sum(sent.values())


class CountingRng:
    """A seeded generator that counts its ``integers`` draws."""

    def __init__(self, seed):
        self._rng = make_rng(seed)
        self.draws = 0

    def integers(self, high):
        self.draws += 1
        return self._rng.integers(high)


ids = st.integers(0, 6)


class TestListView:
    """The two randomized list operations the §3.1 baselines are written in."""

    @given(
        view=st.lists(ids, max_size=12),
        count=st.integers(0, 14),
        excluded=ids,
        seed=st.integers(0, 2**16),
    )
    def test_take_removes_what_it_returns(self, view, count, excluded, seed):
        original = Counter(view)
        candidates = sum(1 for value in view if value != excluded)
        rng = CountingRng(seed)
        taken = ListViewProtocol._take(view, count, excluded, rng)
        assert len(taken) == min(count, candidates) == rng.draws
        assert excluded not in taken
        assert not Counter(taken) - original  # a sub-multiset of the view
        assert Counter(view) == original - Counter(taken)

    @given(
        view_size=st.integers(2, 6),
        bootstrap=st.lists(ids, max_size=6),
        values=st.lists(ids, max_size=20),
        seed=st.integers(0, 2**16),
    )
    def test_insert_keeps_the_view_bounded(self, view_size, bootstrap, values, seed):
        node = 0
        protocol = PushPullProtocol(view_size)
        protocol.add_node(node, [v for v in bootstrap if v != node][:view_size])
        rng = CountingRng(seed)
        for value in values:
            before = list(protocol._views[node])
            draws, deletions = rng.draws, protocol.stats.deletions
            protocol._insert(node, value, rng)
            after = protocol._views[node]
            full = len(before) == view_size
            evicted = value != node and full
            assert rng.draws - draws == protocol.stats.deletions - deletions == evicted
            assert len(after) <= view_size and node not in after
            if value == node:
                assert after == before
            elif full:  # one entry overwritten in place
                assert sum(a != b for a, b in zip(after, before)) <= 1
                assert value in after
            else:
                assert after == before + [value]
