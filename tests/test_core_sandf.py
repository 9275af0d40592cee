"""Tests for repro.core.sandf — the S&F protocol itself."""

import pytest

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.protocols.base import Message
from repro.util.rng import make_rng


def make_protocol(view_size=8, d_low=2):
    return SendForget(SFParams(view_size=view_size, d_low=d_low))


class TestPopulation:
    def test_add_node(self):
        protocol = make_protocol()
        protocol.add_node(0, [1, 2])
        assert protocol.has_node(0)
        assert protocol.outdegree(0) == 2

    def test_duplicate_node_rejected(self):
        protocol = make_protocol()
        protocol.add_node(0, [1, 2])
        with pytest.raises(ValueError):
            protocol.add_node(0, [1, 2])

    def test_odd_bootstrap_rejected(self):
        protocol = make_protocol()
        with pytest.raises(ValueError):
            protocol.add_node(0, [1, 2, 3])

    def test_bootstrap_below_d_low_rejected(self):
        protocol = make_protocol(d_low=2)
        with pytest.raises(ValueError):
            protocol.add_node(0, [])

    def test_bootstrap_above_view_size_rejected(self):
        protocol = make_protocol(view_size=6, d_low=0)
        with pytest.raises(ValueError):
            protocol.add_node(0, list(range(1, 9)))

    def test_remove_node(self):
        protocol = make_protocol()
        protocol.add_node(0, [1, 2])
        protocol.remove_node(0)
        assert not protocol.has_node(0)

    def test_remove_unknown_rejected(self):
        protocol = make_protocol()
        with pytest.raises(KeyError):
            protocol.remove_node(5)


class TestInitiate:
    def test_message_format(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 2])
        rng = make_rng(0)
        effects = ()
        while not effects:
            effects = protocol.initiate_effects(0, rng)
        message = effects[0].message
        assert message.sender == 0
        assert message.kind == "sandf"
        assert len(message.payload) == 2
        assert message.payload[0][0] == 0  # sender's own id first

    def test_clears_both_entries_above_threshold(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 2])
        rng = make_rng(0)
        effects = ()
        while not effects:
            effects = protocol.initiate_effects(0, rng)
        assert protocol.outdegree(0) == 0

    def test_duplicates_at_threshold(self):
        protocol = make_protocol(d_low=2)
        protocol.add_node(0, [1, 2])
        rng = make_rng(0)
        effects = ()
        while not effects:
            effects = protocol.initiate_effects(0, rng)
        message = effects[0].message
        assert protocol.outdegree(0) == 2
        assert protocol.stats.duplications == 1
        # Duplicated payload entries are flagged dependent in the message.
        assert all(flag for _, flag in message.payload)

    def test_empty_slot_selection_is_self_loop(self):
        protocol = make_protocol(view_size=8, d_low=0)
        protocol.add_node(0, [1, 2])  # 2 of 8 slots filled
        rng = make_rng(1)
        results = [protocol.initiate_effects(0, rng) for _ in range(300)]
        none_count = sum(1 for r in results if r == ())
        # q = 2*1/(8*7) = 1/28 acting probability; most actions self-loop...
        assert none_count > 200
        assert protocol.stats.self_loops == none_count

    def test_empty_view_never_sends(self):
        protocol = make_protocol(view_size=8, d_low=0)
        protocol.add_node(0, [1, 2])
        rng = make_rng(2)
        # Drain the two entries with one successful action.
        while protocol.outdegree(0) > 0:
            protocol.initiate_effects(0, rng)
        for _ in range(50):
            assert protocol.initiate_effects(0, rng) == ()


class TestDeliver:
    def test_stores_both_ids(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 2])
        message = Message(sender=5, target=0, payload=[(5, False), (7, False)], kind="sandf")
        protocol.deliver_effects(message, make_rng(0))
        ids = protocol.view_of(0)
        assert ids[5] == 1 and ids[7] == 1
        assert protocol.outdegree(0) == 4

    def test_full_view_deletes(self):
        protocol = make_protocol(view_size=6, d_low=0)
        protocol.add_node(0, [1, 2, 3, 4, 5, 1])
        message = Message(sender=5, target=0, payload=[(5, False), (7, False)], kind="sandf")
        protocol.deliver_effects(message, make_rng(0))
        assert protocol.outdegree(0) == 6
        assert protocol.stats.deletions == 1

    def test_departed_target_ignored(self):
        protocol = make_protocol()
        message = Message(sender=5, target=99, payload=[(5, False), (7, False)], kind="sandf")
        assert protocol.deliver_effects(message, make_rng(0)) == ()

    def test_dependence_flags_stored(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 2])
        message = Message(sender=5, target=0, payload=[(5, True), (7, False)], kind="sandf")
        protocol.deliver_effects(message, make_rng(0))
        view = protocol.raw_view(0)
        flags = {e.node_id: e.dependent for _, e in view.entries()}
        assert flags[5] is True
        assert flags[7] is False

    def test_single_empty_slot_deletes_whole_payload(self):
        """All-or-nothing deletion (Fig 5.1 right, line 2).

        With exactly one empty slot and a two-id payload, the protocol
        deletes BOTH ids rather than storing one: a partial store would
        make the outdegree odd and break Observation 5.1.
        """
        protocol = make_protocol(view_size=6, d_low=0)
        protocol.add_node(0, [1, 2, 3, 4])
        view = protocol.raw_view(0)
        view.store_into(view.nth_empty_slot(0), 8, False)
        assert view.empty_count == 1
        message = Message(
            sender=5, target=0, payload=[(98, False), (99, False)], kind="sandf"
        )
        protocol.deliver_effects(message, make_rng(0))
        ids = protocol.view_of(0)
        assert 98 not in ids and 99 not in ids
        assert protocol.outdegree(0) == 5  # unchanged — nothing partial
        assert protocol.stats.deletions == 1
        assert protocol.stats.deliveries == 1

    def test_exactly_two_empty_slots_accepts(self):
        """The capacity gate is ``empty_count >= payload size``, sharp."""
        protocol = make_protocol(view_size=6, d_low=0)
        protocol.add_node(0, [1, 2, 3, 4])
        message = Message(
            sender=5, target=0, payload=[(98, False), (99, False)], kind="sandf"
        )
        protocol.deliver_effects(message, make_rng(0))
        assert protocol.outdegree(0) == 6
        assert protocol.stats.deletions == 0
        ids = protocol.view_of(0)
        assert ids[98] == 1 and ids[99] == 1

    def test_deliver_ranked_matches_capacity_gate(self):
        """The kernel-facing entry point shares the all-or-nothing rule."""
        protocol = make_protocol(view_size=6, d_low=0)
        protocol.add_node(0, [1, 2, 3, 4, 5, 6])  # full view
        message = Message(
            sender=5, target=0, payload=[(98, False), (99, False)], kind="sandf"
        )
        protocol.deliver_ranked(message, [0.0, 0.0])
        assert protocol.stats.deletions == 1
        assert protocol.outdegree(0) == 6
        protocol2 = make_protocol(view_size=6, d_low=0)
        protocol2.add_node(0, [1, 2, 3, 4])
        protocol2.deliver_ranked(message, [0.0, 0.0])
        # Ranked stores fill the lowest-indexed empties for ranks 0, 0.
        slots = [
            None if e is None else e.node_id for e in protocol2.raw_view(0)
        ]
        assert slots == [1, 2, 3, 4, 98, 99]


class TestInvariant:
    def test_invariant_after_random_actions(self):
        protocol = make_protocol(view_size=10, d_low=2)
        n = 12
        for u in range(n):
            protocol.add_node(u, [(u + 1) % n, (u + 2) % n, (u + 3) % n, (u + 4) % n])
        rng = make_rng(3)
        for step in range(3000):
            node = step % n
            for effect in protocol.initiate_effects(node, rng):
                if rng.random() > 0.1:  # 10% loss
                    protocol.deliver_effects(effect.message, rng)
        protocol.check_invariant()

    def test_outdegree_never_below_d_low(self):
        protocol = make_protocol(view_size=10, d_low=4)
        n = 10
        for u in range(n):
            protocol.add_node(u, [(u + k) % n for k in range(1, 5)])
        rng = make_rng(4)
        for step in range(2000):
            for effect in protocol.initiate_effects(step % n, rng):
                protocol.deliver_effects(effect.message, rng)
            for u in range(n):
                assert protocol.outdegree(u) >= 4


class TestDependenceAccounting:
    def test_fresh_system_has_no_dependence(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 2])
        protocol.add_node(1, [0, 2])
        protocol.add_node(2, [0, 1])
        assert protocol.dependent_fraction() == 0.0

    def test_self_edges_counted_dependent(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [0, 1])
        assert protocol.dependent_fraction() == 0.5

    def test_duplicates_counted_dependent(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 1])
        assert protocol.dependent_fraction() == 0.5

    def test_empty_population(self):
        protocol = make_protocol()
        assert protocol.dependent_fraction() == 0.0


class TestExport:
    def test_export_graph_matches_views(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [1, 1])
        protocol.add_node(1, [0, 2])
        protocol.add_node(2, [0, 1])
        graph = protocol.export_graph()
        assert graph.multiplicity(0, 1) == 2
        assert graph.indegree(0) == 2
        assert graph.num_edges == 6

    def test_export_includes_departed_ids(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [9, 9])  # 9 never joined (or departed)
        graph = protocol.export_graph()
        assert graph.has_node(9)
        assert graph.indegree(9) == 2

    def test_indegrees_only_live_nodes(self):
        protocol = make_protocol(d_low=0)
        protocol.add_node(0, [9, 9])
        assert protocol.indegrees() == {0: 0}
