"""Tests for repro.core.view."""

import pytest

import dataclasses

from repro.core.view import View, ViewEntry
from repro.util.rng import make_rng


class TestBasics:
    def test_starts_empty(self):
        view = View(8)
        assert view.outdegree == 0
        assert view.empty_count == 8
        assert not view.is_full

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            View(0)
        with pytest.raises(ValueError):
            View(2, [1, 2, 3])

    def test_len_and_iter(self):
        view = View(4)
        assert len(view) == 4
        assert list(view) == [None] * 4

    def test_store_into_specific_slot(self):
        view = View(4)
        view.store_into(2, 7, False)
        assert view.get(2).node_id == 7
        assert view.outdegree == 1

    def test_store_into_occupied_rejected(self):
        view = View(4)
        view.store_into(0, 1, False)
        with pytest.raises(ValueError):
            view.store_into(0, 2, False)

    def test_clear_slot_returns_id(self):
        view = View(4)
        view.store_into(1, 9, True)
        assert view.get(1) == ViewEntry(9, dependent=True)
        assert view.clear_slot(1) == 9
        assert view.get(1) is None
        assert view.outdegree == 0

    def test_clear_empty_slot_rejected(self):
        view = View(4)
        with pytest.raises(ValueError):
            view.clear_slot(0)

    def test_entries_are_read_only_snapshots(self):
        view = View(4, [3, 5])
        entry = view.get(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.node_id = 7
        assert view.get(0) == ViewEntry(3)
        assert list(view.entries()) == [(0, ViewEntry(3)), (1, ViewEntry(5))]
        assert view.slots() == ((3, False), (5, False), None, None)


def loop_filled(size, bootstrap):
    """A view filled the slow way: one ``store_into`` per bootstrap id."""
    view = View(size)
    for index, node_id in enumerate(bootstrap):
        view.store_into(index, node_id, False)
    return view


class TestBulkFill:
    def test_matches_store_into_loop(self):
        """``store_random_empty`` picks by free-list position, so the bulk
        fill must leave the loop's exact free-list order, not just the
        same empty slots."""
        cases = [(s, k) for s in range(1, 13) for k in range(s + 1)]
        for size, filled in cases + [(40, 30), (40, 18), (40, 40)]:
            bootstrap = [100 + i for i in range(filled)]
            bulk, loop = View(size, bootstrap), loop_filled(size, bootstrap)
            assert bulk.slots() == loop.slots(), (size, filled)
            assert bulk._empty == loop._empty, (size, filled)
            assert bulk._empty_pos == loop._empty_pos, (size, filled)
            bulk.validate()

    def test_views_share_no_state(self):
        """Views of one (s, k) start from one cached free list; no view,
        and not the caller's bootstrap list, may write through to another."""
        bootstrap = [1, 2, 3]
        first, second = View(6, bootstrap), View(6, bootstrap)
        bootstrap[0] = 99
        rng = make_rng(5)
        first.clear_slot(1)
        first.store_random_empty(7, True, rng)
        first.store_random_empty(8, False, rng)
        assert second.slots() == loop_filled(6, [1, 2, 3]).slots()
        assert second._empty == loop_filled(6, [1, 2, 3])._empty
        third = View(6, [1, 2, 3])
        assert third._empty == second._empty
        assert third._empty_pos == second._empty_pos
        third.validate()


class TestRandomOperations:
    def test_sample_two_distinct_slots(self):
        view = View(6)
        rng = make_rng(0)
        for _ in range(200):
            i, j = view.sample_two_slots(rng)
            assert i != j
            assert 0 <= i < 6 and 0 <= j < 6

    def test_sample_covers_all_ordered_pairs(self):
        view = View(4)
        rng = make_rng(1)
        seen = set()
        for _ in range(2000):
            seen.add(view.sample_two_slots(rng))
        assert len(seen) == 12  # 4*3 ordered pairs

    def test_store_random_empty_fills(self):
        view = View(4)
        rng = make_rng(2)
        for node_id in range(4):
            view.store_random_empty(node_id, False, rng)
        assert view.is_full
        assert sorted(e.node_id for _, e in view.entries()) == [0, 1, 2, 3]

    def test_store_random_empty_full_rejected(self):
        view = View(2)
        rng = make_rng(3)
        view.store_random_empty(0, False, rng)
        view.store_random_empty(1, False, rng)
        with pytest.raises(ValueError):
            view.store_random_empty(2, False, rng)

    def test_interleaved_clear_store_consistent(self):
        view = View(8)
        rng = make_rng(4)
        filled = []
        for step in range(500):
            if view.outdegree > 0 and (step % 3 == 0):
                index = filled.pop()
                if view.get(index) is not None:
                    view.clear_slot(index)
            if not view.is_full:
                filled.append(view.store_random_empty(step, False, rng))
            view.validate()


class TestCounting:
    def test_ids_multiset(self):
        view = View(6)
        view.store_into(0, 5, False)
        view.store_into(1, 5, False)
        view.store_into(2, 3, False)
        assert view.ids() == {5: 2, 3: 1}
