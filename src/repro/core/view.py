"""Local views: fixed-size slot arrays with empty (⊥) entries.

Section 5 of the paper: each node maintains ``u.lv``, an array of ``s``
slots, each holding a node id or ⊥.  Unlike most gossip protocols, S&F
deliberately allows empty slots — they are how the protocol absorbs loss
without creating dependent entries.

Every nonempty slot carries a *dependence* flag implementing the edge
labeling of section 2 / Figure 7.1 operationally:

* entries created by a duplication event are dependent ("received
  previously duplicated"), as are the copies kept at the duplicating
  sender ("sent with duplication");
* an entry forwarded by an action that did clear the sender's slots is
  stored independent at the receiver ("sent without duplication" — the
  information has moved rather than been copied, so the mixing component
  decorrelated it).

Self-edges and duplicate ids within one view are additionally counted as
dependent by the metrics layer, matching the paper's labeling rules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

NodeId = int


@dataclass(frozen=True, slots=True)
class ViewEntry:
    """A snapshot of one nonempty view slot: the stored id plus its
    dependence label.  The view itself keeps no entry objects; writes go
    through :meth:`View.store_into` / :meth:`View.store_random_empty`."""

    node_id: NodeId
    dependent: bool = False


@lru_cache(maxsize=None)
def _filled_free_list(size: int, filled: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(_empty, _empty_pos)`` as storing slots ``0 .. filled − 1`` one at
    a time into an empty view leaves them.  ``store_random_empty`` picks by
    position in ``_empty``, so a bulk fill must reproduce this order.
    Tuples, so no view can change the cached copy."""
    if not filled:
        return tuple(range(size)), tuple(range(size))
    view = View(size)
    for index in range(filled):
        view.store_into(index, 0, False)
    return tuple(view._empty), tuple(view._empty_pos)


class View:
    """A fixed array of ``size`` slots, each ⊥ or an id with its label.

    Two flat per-slot lists hold the state: ``_ids`` (an id, or ``None``
    for ⊥) and ``_dep`` (the dependence label, meaningful only where
    ``_ids`` is not ``None``).  A free-slot index list makes the protocol's
    operations — sample two random slots, clear a slot, store into a random
    empty slot — all O(1).
    """

    __slots__ = ("_ids", "_dep", "_empty", "_empty_pos")

    def __init__(self, size: int, bootstrap: Sequence[NodeId] = ()):
        """An empty view, or one whose slots ``0 .. len(bootstrap) − 1``
        hold ``bootstrap`` (independent), exactly as storing them one by
        one with :meth:`store_into` would leave it."""
        if size <= 0:
            raise ValueError(f"view size must be positive, got {size}")
        filled = len(bootstrap)
        if filled > size:
            raise ValueError(f"{filled} bootstrap ids exceed view size {size}")
        self._ids: List[Optional[NodeId]] = [*bootstrap, *[None] * (size - filled)]
        self._dep: List[bool] = [False] * size
        empty, empty_pos = _filled_free_list(size, filled)
        self._empty: List[int] = list(empty)
        # Position of each empty slot index inside self._empty, for O(1)
        # removal when a specific slot is filled.
        self._empty_pos: List[int] = list(empty_pos)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The view size ``s`` (Property M1 requires ``s ≪ n``)."""
        return len(self._ids)

    @property
    def outdegree(self) -> int:
        """``d(u)``: the number of nonempty slots."""
        return len(self._ids) - len(self._empty)

    @property
    def empty_count(self) -> int:
        return len(self._empty)

    @property
    def is_full(self) -> bool:
        return not self._empty

    def id_at(self, index: int) -> Optional[NodeId]:
        """The id in slot ``index``, or ``None`` for ⊥."""
        return self._ids[index]

    def get(self, index: int) -> Optional[ViewEntry]:
        node_id = self._ids[index]
        return None if node_id is None else ViewEntry(node_id, self._dep[index])

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Optional[ViewEntry]]:
        for node_id, dependent in zip(self._ids, self._dep):
            yield None if node_id is None else ViewEntry(node_id, dependent)

    def entries(self) -> Iterator[Tuple[int, ViewEntry]]:
        """Iterate (slot index, entry) over nonempty slots."""
        for index, node_id in enumerate(self._ids):
            if node_id is not None:
                yield index, ViewEntry(node_id, self._dep[index])

    def slots(self) -> Tuple[Optional[Tuple[NodeId, bool]], ...]:
        """Every slot as ``None`` (⊥) or ``(node_id, dependent)``."""
        return tuple(
            None if node_id is None else (node_id, dependent)
            for node_id, dependent in zip(self._ids, self._dep)
        )

    def ids(self) -> Counter:
        """The multiset of ids currently held (the view as the paper sees it)."""
        return Counter([node_id for node_id in self._ids if node_id is not None])

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------

    def sample_two_slots(self, rng) -> Tuple[int, int]:
        """Select two distinct slot indices uniformly at random (Fig 5.1 l.2).

        Returns ``(i, j)`` with ``i ≠ j``; either slot may be empty — in that
        case the caller's action is a self-loop transformation.
        """
        size = len(self._ids)
        i = int(rng.integers(size))
        j = int(rng.integers(size - 1))
        if j >= i:
            j += 1
        return i, j

    def clear_slot(self, index: int) -> NodeId:
        """Empty slot ``index`` and return the id it held."""
        node_id = self._ids[index]
        if node_id is None:
            raise ValueError(f"slot {index} is already empty")
        self._ids[index] = None
        self._empty_pos[index] = len(self._empty)
        self._empty.append(index)
        return node_id

    def store_random_empty(self, node_id: NodeId, dependent: bool, rng) -> int:
        """Store ``node_id`` with label ``dependent`` into a uniformly random
        empty slot (Fig 5.1 r.3-6).

        Returns the slot index used.  Raises if the view is full — callers
        must check :attr:`is_full` first (the protocol *deletes* in that case).
        """
        if not self._empty:
            raise ValueError("view is full; received ids must be deleted")
        pick = int(rng.integers(len(self._empty)))
        index = self._empty[pick]
        # Swap-remove the chosen free slot.
        last = self._empty[-1]
        self._empty[pick] = last
        self._empty_pos[last] = pick
        self._empty.pop()
        self._ids[index] = node_id
        self._dep[index] = dependent
        return index

    def store_into(self, index: int, node_id: NodeId, dependent: bool) -> None:
        """Store ``node_id`` with label ``dependent`` into the specific empty
        slot ``index`` (the kernel layer's ranked discipline, or a
        deterministic re-fill)."""
        if self._ids[index] is not None:
            raise ValueError(f"slot {index} is occupied")
        pos = self._empty_pos[index]
        if pos >= len(self._empty) or self._empty[pos] != index:
            raise AssertionError("free-list out of sync")
        last = self._empty[-1]
        self._empty[pos] = last
        self._empty_pos[last] = pos
        self._empty.pop()
        self._ids[index] = node_id
        self._dep[index] = dependent

    def nth_empty_slot(self, rank: int) -> int:
        """The ``rank``-th lowest-indexed empty slot.

        The kernel layer's canonical empty-slot discipline (see
        :mod:`repro.kernel.base`) ranks empties by slot index so that the
        choice is reproducible from a single uniform draw regardless of
        free-list history.  Distributionally identical to drawing from the
        free list, since the stored rank is itself uniform.
        """
        if not 0 <= rank < len(self._empty):
            raise ValueError(f"rank {rank} outside [0, {len(self._empty)})")
        seen = 0
        for index, node_id in enumerate(self._ids):
            if node_id is None:
                if seen == rank:
                    return index
                seen += 1
        raise AssertionError("free-list count out of sync")  # pragma: no cover

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check internal free-list consistency."""
        empties = {i for i, node_id in enumerate(self._ids) if node_id is None}
        if empties != set(self._empty):
            raise AssertionError("free list does not match empty slots")
        for pos, index in enumerate(self._empty):
            if self._empty_pos[index] != pos:
                raise AssertionError("free-list position index out of sync")

    def __repr__(self) -> str:
        shown = ["⊥" if node_id is None else str(node_id) for node_id in self._ids]
        return f"View([{', '.join(shown)}])"


def dependent_fraction(views: Iterable[Tuple[NodeId, View]]) -> float:
    """Fraction of nonempty entries that are dependent, over ``(owner, view)``
    pairs: entries labeled dependent, plus structural dependents (self-edges
    and in-view duplicates not already labeled).

    This is the empirical ``1 − α`` compared against ``2(ℓ+δ)`` in the
    Lemma 7.9 benchmark.
    """
    dependent = 0
    total = 0
    for owner, view in views:
        seen = set()
        for node_id, labeled in zip(view._ids, view._dep):
            if node_id is None:
                continue
            total += 1
            # Self-edges are always dependent, and so are all but one copy
            # of a duplicate id.
            if labeled or node_id == owner or node_id in seen:
                dependent += 1
            seen.add(node_id)
    if total == 0:
        return 0.0
    return dependent / total
