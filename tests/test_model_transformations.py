"""Tests for repro.model.transformations (graph-level S&F actions)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.model.membership_graph import MembershipGraph
from repro.model.transformations import (
    ViewTuples,
    apply_receive,
    apply_send,
    degree_borrowing,
    edge_exchange,
    enumerate_action_outcomes,
    sandf_action,
)


def triangle() -> MembershipGraph:
    """0→{1,2}, 1→{2,0}, 2→{0,1}: all outdegrees 2, weakly connected."""
    return MembershipGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    )


class TestApplySend:
    def test_clears_when_above_threshold(self):
        graph = triangle()
        cleared = apply_send(graph, 0, target=1, payload=2, d_low=0)
        assert cleared
        assert graph.outdegree(0) == 0

    def test_duplicates_at_threshold(self):
        graph = triangle()
        cleared = apply_send(graph, 0, target=1, payload=2, d_low=2)
        assert not cleared
        assert graph.outdegree(0) == 2

    def test_missing_target_entry_rejected(self):
        graph = MembershipGraph.from_edges([(0, 1), (0, 1)])
        with pytest.raises(KeyError):
            apply_send(graph, 0, target=2, payload=1, d_low=0)

    def test_double_entry_same_id(self):
        graph = MembershipGraph.from_edges([(0, 1), (0, 1)])
        cleared = apply_send(graph, 0, target=1, payload=1, d_low=0)
        assert cleared
        assert graph.outdegree(0) == 0

    def test_single_copy_cannot_be_sent_twice(self):
        graph = MembershipGraph.from_edges([(0, 1), (0, 2)])
        with pytest.raises(KeyError):
            apply_send(graph, 0, target=1, payload=1, d_low=0)


class TestApplyReceive:
    def test_stores_both_ids(self):
        graph = MembershipGraph([0, 1, 2])
        stored = apply_receive(graph, receiver=0, sender=1, payload=2, view_size=6)
        assert stored
        assert graph.has_edge(0, 1) and graph.has_edge(0, 2)

    def test_full_view_deletes(self):
        graph = MembershipGraph.from_edges(
            [(0, 1)] * 3 + [(0, 2)] * 3
        )
        stored = apply_receive(graph, receiver=0, sender=1, payload=2, view_size=6)
        assert not stored
        assert graph.outdegree(0) == 6


class TestSandfAction:
    def test_delivered_action_moves_edges(self):
        graph = triangle()
        after = sandf_action(graph, 0, target=1, payload=2, d_low=0, view_size=6, lost=False)
        # Fig 5.2(b): u loses (u,v),(u,w); v gains (v,u),(v,w).
        assert after.outdegree(0) == 0
        assert after.multiplicity(1, 0) == 2  # had (1,0), gained another
        assert after.multiplicity(1, 2) == 2

    def test_lost_action_drops_edges(self):
        graph = triangle()
        after = sandf_action(graph, 0, target=1, payload=2, d_low=0, view_size=6, lost=True)
        assert after.outdegree(0) == 0
        assert after.outdegree(1) == 2  # unchanged: receive never ran

    def test_duplication_with_loss_is_identity(self):
        graph = triangle()
        after = sandf_action(graph, 0, target=1, payload=2, d_low=2, view_size=6, lost=True)
        assert after == graph

    def test_input_not_mutated(self):
        graph = triangle()
        before = graph.copy()
        sandf_action(graph, 0, target=1, payload=2, d_low=0, view_size=6, lost=False)
        assert graph == before

    def test_sum_degree_preserved_without_loss(self):
        graph = triangle()
        after = sandf_action(graph, 0, target=1, payload=2, d_low=0, view_size=6, lost=False)
        assert after.sum_degree_vector() == graph.sum_degree_vector()


class TestEnumerateOutcomes:
    def test_probabilities_sum_to_one(self):
        graph = triangle()
        for loss in (0.0, 0.3, 1.0):
            outcomes = enumerate_action_outcomes(graph, 0, 0, 6, loss)
            assert math.isclose(sum(p for p, _ in outcomes), 1.0, rel_tol=1e-12)

    def test_self_loop_mass_matches_empty_slots(self):
        graph = triangle()
        outcomes = enumerate_action_outcomes(graph, 0, 0, 6, 0.0)
        self_loop = sum(p for p, g in outcomes if g == graph)
        # d=2, s=6: q = 2*1/(6*5) = 1/15 acting probability.
        assert math.isclose(self_loop, 1 - 1 / 15, rel_tol=1e-12)

    def test_no_loss_outcomes_have_no_lost_variant(self):
        graph = triangle()
        outcomes = enumerate_action_outcomes(graph, 0, 0, 6, 0.0)
        # Non-self-loop outcomes must preserve total edge count (no loss).
        for prob, successor in outcomes:
            if successor != graph:
                assert successor.num_edges == graph.num_edges

    def test_full_loss_outcomes_shrink(self):
        graph = triangle()
        outcomes = enumerate_action_outcomes(graph, 0, 0, 6, 1.0)
        for prob, successor in outcomes:
            if successor != graph:
                assert successor.num_edges == graph.num_edges - 2

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            enumerate_action_outcomes(triangle(), 0, 0, 6, 1.5)


def _composed_outcomes(graph, initiator, d_low, view_size, loss_rate):
    """The oracle: every slot pair's ``sandf_action`` on a graph copy,
    merged by graph equality (first successor kept), self-loop last."""
    view = graph.out_view(initiator)
    d = sum(view.values())
    slots = view_size * (view_size - 1)
    merged = {}
    for target, target_count in view.items():
        for payload, payload_count in view.items():
            if target == payload:
                pair_prob = target_count * (target_count - 1) / slots
            else:
                pair_prob = target_count * payload_count / slots
            if pair_prob == 0.0:
                continue
            for lost, prob in ((False, 1.0 - loss_rate), (True, loss_rate)):
                if prob > 0.0:
                    successor = sandf_action(
                        graph, initiator, target, payload, d_low, view_size, lost
                    )
                    merged[successor] = merged.get(successor, 0.0) + pair_prob * prob
    outcomes = [(prob, successor) for successor, prob in merged.items()]
    self_loop = 1.0 - d * (d - 1) / slots
    if self_loop > 1e-15:
        outcomes.append((self_loop, graph.copy()))
    return outcomes


@st.composite
def connected_graphs(draw):
    """Weakly connected graphs on ≤ 4 nodes (listed in a random order,
    self-edges allowed) with even outdegrees ≤ s."""
    n = draw(st.integers(min_value=2, max_value=4))
    view_size = draw(st.sampled_from([6, 8]))
    edges = []
    for u in range(n):
        half = draw(st.integers(min_value=0, max_value=view_size // 2))
        targets = draw(
            st.lists(st.integers(0, n - 1), min_size=2 * half, max_size=2 * half)
        )
        edges += [(u, v) for v in targets]
    nodes = draw(st.permutations(range(n)))
    graph = MembershipGraph.from_edges(edges, nodes=nodes)
    assume(graph.is_weakly_connected())
    return graph, view_size


class TestViewTupleStep:
    @given(
        case=connected_graphs(),
        d_low=st.sampled_from([0, 2]),
        loss_rate=st.sampled_from([0.0, 0.3, 1.0]),
        pick=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_step_equals_composed_sandf_actions(self, case, d_low, loss_rate, pick):
        graph, view_size = case
        initiator = graph.nodes[pick % graph.num_nodes]
        layout = ViewTuples(graph.nodes)
        state = layout.encode(graph)
        step = layout.outcomes(state, initiator, d_low, view_size, loss_rate)
        oracle = _composed_outcomes(graph, initiator, d_low, view_size, loss_rate)

        def by_key(pairs):
            masses = {}
            for prob, key in pairs:
                masses[key] = masses.get(key, 0.0) + prob
            return masses

        assert by_key((p, key) for p, key, _ in step) == by_key(
            (p, g.canonical_state()) for p, g in oracle
        )
        # Entry for entry, in Counter order: what keeps discovery order.
        assert [(p, s) for p, _, s in step] == [(p, layout.encode(g)) for p, g in oracle]
        for _, key, successor in step:
            decoded = layout.decode(successor)
            assert key == decoded.canonical_state()
            assert layout.is_weakly_connected(successor) == decoded.is_weakly_connected()


class TestEdgeExchange:
    def test_swaps_edges(self):
        # u=0 holds w=2; v=1 holds z=2; edge (0,1) exists.
        graph = triangle()
        after = edge_exchange(graph, u=0, w=2, v=1, z=2, d_low=0, view_size=6)
        # (0,2) and (1,2) exchanged to (0,2)... use distinct targets:
        assert after.num_edges == graph.num_edges

    def test_exchange_distinct_targets(self):
        graph = MembershipGraph.from_edges(
            [(0, 1), (0, 2), (1, 3), (1, 0), (2, 0), (2, 1), (3, 0), (3, 2)]
        )
        after = edge_exchange(graph, u=0, w=2, v=1, z=3, d_low=0, view_size=6)
        assert after.has_edge(0, 3)
        assert after.has_edge(1, 2)
        assert not after.has_edge(0, 2)
        assert not after.has_edge(1, 3)

    def test_sum_degrees_invariant(self):
        graph = MembershipGraph.from_edges(
            [(0, 1), (0, 2), (1, 3), (1, 0), (2, 0), (2, 1), (3, 0), (3, 2)]
        )
        after = edge_exchange(graph, u=0, w=2, v=1, z=3, d_low=0, view_size=6)
        assert after.sum_degree_vector() == graph.sum_degree_vector()

    def test_requires_connecting_edge(self):
        graph = MembershipGraph.from_edges([(0, 2), (1, 2), (2, 0), (2, 1)])
        with pytest.raises(ValueError):
            edge_exchange(graph, u=0, w=2, v=1, z=2, d_low=0, view_size=6)

    def test_requires_sender_headroom(self):
        graph = triangle()
        with pytest.raises(ValueError):
            edge_exchange(graph, u=0, w=2, v=1, z=2, d_low=2, view_size=6)


class TestDegreeBorrowing:
    def test_moves_two_degrees(self):
        graph = MembershipGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
        )
        after = degree_borrowing(graph, u=0, v=1, d_low=0, view_size=6)
        assert after.outdegree(0) == 0
        assert after.outdegree(1) == 4

    def test_sum_degrees_invariant(self):
        graph = triangle()
        after = degree_borrowing(graph, u=0, v=1, d_low=0, view_size=6)
        assert after.sum_degree_vector() == graph.sum_degree_vector()

    def test_requires_edge(self):
        graph = MembershipGraph.from_edges([(0, 2), (0, 2), (1, 2), (1, 2), (2, 0), (2, 1)])
        with pytest.raises(ValueError):
            degree_borrowing(graph, u=0, v=1, d_low=0, view_size=6)

    def test_requires_receiver_space(self):
        graph = MembershipGraph.from_edges(
            [(0, 1), (0, 2)] + [(1, 2)] * 6 + [(2, 0)]
        )
        with pytest.raises(ValueError):
            degree_borrowing(graph, u=0, v=1, d_low=0, view_size=6)
