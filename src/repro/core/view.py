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
from typing import Iterable, Iterator, List, Optional, Tuple

NodeId = int


@dataclass
class ViewEntry:
    """A nonempty view slot: the stored id plus its dependence label."""

    node_id: NodeId
    dependent: bool = False


class View:
    """A fixed array of ``size`` slots, each ``None`` (⊥) or a ``ViewEntry``.

    Maintains a free-slot index list so that the protocol's operations —
    sample two random slots, clear a slot, store into a random empty slot —
    are all O(1).
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"view size must be positive, got {size}")
        self._slots: List[Optional[ViewEntry]] = [None] * size
        self._empty: List[int] = list(range(size))
        # Position of each empty slot index inside self._empty, for O(1)
        # removal when a specific slot is filled.
        self._empty_pos: List[int] = list(range(size))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The view size ``s`` (Property M1 requires ``s ≪ n``)."""
        return len(self._slots)

    @property
    def outdegree(self) -> int:
        """``d(u)``: the number of nonempty slots."""
        return len(self._slots) - len(self._empty)

    @property
    def empty_count(self) -> int:
        return len(self._empty)

    @property
    def is_full(self) -> bool:
        return not self._empty

    def get(self, index: int) -> Optional[ViewEntry]:
        return self._slots[index]

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Optional[ViewEntry]]:
        return iter(self._slots)

    def entries(self) -> Iterator[Tuple[int, ViewEntry]]:
        """Iterate (slot index, entry) over nonempty slots."""
        for index, entry in enumerate(self._slots):
            if entry is not None:
                yield index, entry

    def ids(self) -> Counter:
        """The multiset of ids currently held (the view as the paper sees it)."""
        counts: Counter = Counter()
        for _, entry in self.entries():
            counts[entry.node_id] += 1
        return counts

    def contains(self, node_id: NodeId) -> bool:
        return any(entry.node_id == node_id for _, entry in self.entries())

    def dependent_count(self) -> int:
        """Number of entries whose dependence flag is set."""
        return sum(1 for _, entry in self.entries() if entry.dependent)

    def self_edge_count(self, owner: NodeId) -> int:
        """Number of entries equal to the owner's own id (always dependent)."""
        return sum(1 for _, entry in self.entries() if entry.node_id == owner)

    def duplicate_count(self) -> int:
        """Redundant copies: for an id held ``m > 1`` times, ``m − 1`` count."""
        return sum(m - 1 for m in self.ids().values() if m > 1)

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------

    def sample_two_slots(self, rng) -> Tuple[int, int]:
        """Select two distinct slot indices uniformly at random (Fig 5.1 l.2).

        Returns ``(i, j)`` with ``i ≠ j``; either slot may be empty — in that
        case the caller's action is a self-loop transformation.
        """
        size = len(self._slots)
        i = int(rng.integers(size))
        j = int(rng.integers(size - 1))
        if j >= i:
            j += 1
        return i, j

    def clear_slot(self, index: int) -> ViewEntry:
        """Empty slot ``index`` and return the entry it held."""
        entry = self._slots[index]
        if entry is None:
            raise ValueError(f"slot {index} is already empty")
        self._slots[index] = None
        self._empty_pos[index] = len(self._empty)
        self._empty.append(index)
        return entry

    def store_random_empty(self, entry: ViewEntry, rng) -> int:
        """Store ``entry`` into a uniformly random empty slot (Fig 5.1 r.3-6).

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
        self._slots[index] = entry
        return index

    def store_into(self, index: int, entry: ViewEntry) -> None:
        """Store ``entry`` into the specific empty slot ``index``.

        Used when re-filling a slot deterministically (e.g., replaying a
        recorded trace or constructing an initial state).
        """
        if self._slots[index] is not None:
            raise ValueError(f"slot {index} is occupied")
        pos = self._empty_pos[index]
        if pos >= len(self._empty) or self._empty[pos] != index:
            raise AssertionError("free-list out of sync")
        last = self._empty[-1]
        self._empty[pos] = last
        self._empty_pos[last] = pos
        self._empty.pop()
        self._slots[index] = entry

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
        for index, slot in enumerate(self._slots):
            if slot is None:
                if seen == rank:
                    return index
                seen += 1
        raise AssertionError("free-list count out of sync")  # pragma: no cover

    def clear_all(self) -> None:
        """Empty every slot."""
        self._slots = [None] * len(self._slots)
        self._empty = list(range(len(self._slots)))
        self._empty_pos = list(range(len(self._slots)))

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check internal free-list consistency."""
        empties = {i for i, slot in enumerate(self._slots) if slot is None}
        if empties != set(self._empty):
            raise AssertionError("free list does not match empty slots")
        for pos, index in enumerate(self._empty):
            if self._empty_pos[index] != pos:
                raise AssertionError("free-list position index out of sync")

    def __repr__(self) -> str:
        shown = [
            "⊥" if entry is None else str(entry.node_id) for entry in self._slots
        ]
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
    for node_id, view in views:
        seen: Counter = Counter()
        for _, entry in view.entries():
            total += 1
            if entry.dependent:
                dependent += 1
            elif entry.node_id == node_id:
                dependent += 1  # self-edges are always dependent
            elif seen[entry.node_id] >= 1:
                dependent += 1  # all but one copy of a duplicate id
            seen[entry.node_id] += 1
    if total == 0:
        return 0.0
    return dependent / total
