"""Property-based tests for the View free-list machinery (Hypothesis).

The view's O(1) operations lean on two mirrored indices — ``_empty`` (the
free list) and ``_empty_pos`` (each empty slot's position in it) — that
must stay consistent under any interleaving of stores and clears.
Example tests exercise happy paths; these drive randomized operation
sequences and check the invariants the kernel layer's canonical
empty-slot ranking depends on:

* ``validate()`` holds after every operation;
* ``empty_count`` + ``outdegree`` = ``size`` always;
* ``nth_empty_slot(k)`` enumerates exactly the empty slots, ascending;
* a store into the rank-``k`` empty slot lands where a linear scan says;
* the flat-list ``View`` matches an object-per-slot model op for op,
  free-list order included (``store_random_empty`` picks by position in
  ``_empty``, so the reference trajectory depends on that order).
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.view import View
from repro.util.rng import BlockDraws, make_rng

#: An operation is (kind, value) with value a uniform-ish selector that
#: each step maps onto whatever is currently legal for that kind.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["store_rank", "store_slot", "clear"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=60,
)


def empty_slots(view: View):
    return [i for i in range(view.size) if view.get(i) is None]


def apply_op(view: View, kind: str, selector: int, counter: int) -> None:
    empties = empty_slots(view)
    occupied = [i for i in range(view.size) if view.get(i) is not None]
    if kind == "store_rank" and empties:
        rank = selector % len(empties)
        slot = view.nth_empty_slot(rank)
        assert slot == empties[rank]
        view.store_into(slot, counter, bool(selector & 1))
        assert view.get(slot).node_id == counter
    elif kind == "store_slot" and empties:
        slot = empties[selector % len(empties)]
        view.store_into(slot, counter, False)
    elif kind == "clear" and occupied:
        slot = occupied[selector % len(occupied)]
        assert view.clear_slot(slot) is not None
        assert view.get(slot) is None


@settings(max_examples=200, deadline=None)
@given(size=st.integers(min_value=1, max_value=12), ops=OPS)
def test_free_list_invariants_hold_under_any_sequence(size, ops):
    view = View(size)
    for counter, (kind, selector) in enumerate(ops):
        apply_op(view, kind, selector, counter)
        view.validate()
        assert view.empty_count + view.outdegree == view.size
        assert view.empty_count == len(empty_slots(view))
        assert view.is_full == (view.empty_count == 0)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(min_value=1, max_value=12), ops=OPS)
def test_nth_empty_slot_enumerates_empties_ascending(size, ops):
    view = View(size)
    for counter, (kind, selector) in enumerate(ops):
        apply_op(view, kind, selector, counter)
        empties = empty_slots(view)
        assert [view.nth_empty_slot(k) for k in range(len(empties))] == empties


@settings(max_examples=100, deadline=None)
@given(size=st.integers(min_value=1, max_value=12), ops=OPS, data=st.data())
def test_rank_store_rejects_out_of_range(size, ops, data):
    import pytest

    view = View(size)
    for counter, (kind, selector) in enumerate(ops):
        apply_op(view, kind, selector, counter)
    with pytest.raises(ValueError):
        view.nth_empty_slot(view.empty_count)
    with pytest.raises(ValueError):
        view.nth_empty_slot(-1)
    occupied = [i for i in range(view.size) if view.get(i) is not None]
    if occupied:
        slot = occupied[data.draw(st.integers(0, len(occupied) - 1))]
        with pytest.raises(ValueError):
            view.store_into(slot, 999, False)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(min_value=2, max_value=12), seed=st.integers(0, 2**31 - 1))
def test_random_and_ranked_stores_agree_on_occupancy(size, seed):
    """store_random_empty and the ranked discipline fill the same slots
    when driven to saturation, whatever the free-list history."""
    from repro.util.rng import make_rng

    random_view = View(size)
    ranked_view = View(size)
    rng = make_rng(seed)
    for counter in range(size):
        random_view.store_random_empty(counter, False, rng)
        empties = ranked_view.empty_count
        rank = min(int(rng.random() * empties), empties - 1)
        ranked_view.store_into(ranked_view.nth_empty_slot(rank), counter, False)
    assert random_view.is_full and ranked_view.is_full
    assert sorted(e.node_id for _, e in random_view.entries()) == sorted(
        e.node_id for _, e in ranked_view.entries()
    )


# ----------------------------------------------------------------------
# Differential: the flat lists against one entry object per slot
# ----------------------------------------------------------------------


@dataclass
class _Entry:
    node_id: int
    dependent: bool


class ObjectView:
    """Test-only model: a view holding one mutable entry object per slot,
    filled one ``store_into`` at a time, with the same swap-remove free
    list — the layout ``View`` had before it kept flat per-slot lists."""

    def __init__(self, size, bootstrap=()):
        self._slots = [None] * size
        self._empty = list(range(size))
        self._empty_pos = list(range(size))
        for index, node_id in enumerate(bootstrap):
            self.store_into(index, node_id, False)

    def _take(self, pos, node_id, dependent):
        index = self._empty[pos]
        last = self._empty[-1]
        self._empty[pos] = last
        self._empty_pos[last] = pos
        self._empty.pop()
        self._slots[index] = _Entry(node_id, dependent)
        return index

    def store_into(self, index, node_id, dependent):
        self._take(self._empty_pos[index], node_id, dependent)

    def store_random_empty(self, node_id, dependent, rng):
        return self._take(int(rng.integers(len(self._empty))), node_id, dependent)

    def clear_slot(self, index):
        entry = self._slots[index]
        self._slots[index] = None
        self._empty_pos[index] = len(self._empty)
        self._empty.append(index)
        return entry.node_id

    def nth_empty_slot(self, rank):
        return [i for i, entry in enumerate(self._slots) if entry is None][rank]

    def slots(self):
        return tuple(
            None if entry is None else (entry.node_id, entry.dependent)
            for entry in self._slots
        )


def assert_same(view: View, model: ObjectView) -> None:
    assert view.slots() == model.slots()
    assert [
        None if entry is None else (entry.node_id, entry.dependent) for entry in view
    ] == list(model.slots())
    assert view._empty == model._empty
    assert view._empty_pos == model._empty_pos
    view.validate()


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=12),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["store_random", "store_rank", "clear"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=60,
    ),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_flat_view_matches_object_model(size, ops, seed, data):
    bootstrap = data.draw(st.lists(st.integers(0, 50), max_size=size))
    view, model = View(size, bootstrap), ObjectView(size, bootstrap)
    # Equal seeds and equal call sequences give equal draws.
    view_draws, model_draws = BlockDraws(make_rng(seed)), BlockDraws(make_rng(seed))
    assert_same(view, model)
    for counter, (kind, selector) in enumerate(ops):
        dependent = bool(selector & 1)
        occupied = [i for i in range(size) if view.id_at(i) is not None]
        if kind == "store_random" and not view.is_full:
            assert view.store_random_empty(
                counter, dependent, view_draws
            ) == model.store_random_empty(counter, dependent, model_draws)
        elif kind == "store_rank" and not view.is_full:
            rank = selector % view.empty_count
            slot = view.nth_empty_slot(rank)
            assert slot == model.nth_empty_slot(rank)
            view.store_into(slot, counter, dependent)
            model.store_into(slot, counter, dependent)
        elif kind == "clear" and occupied:
            slot = occupied[selector % len(occupied)]
            assert view.clear_slot(slot) == model.clear_slot(slot)
        assert_same(view, model)
