"""Protocol variants: the optimizations section 5 defers to future work.

The paper lists three practical optimizations it deliberately leaves out
of the analyzed protocol ("since such optimizations would make the
protocol harder to analyze, we opted to avoid them and leave
optimizations to future work"):

1. **mark-and-undelete** — instead of clearing sent entries immediately,
   mark them deleted; a later duplication-triggering action *undeletes*
   marked entries instead of duplicating live ones.  Undeletion restores
   ids that were (probably) lost, so it repairs loss without creating
   fresh correlated copies of still-live entries.
2. **replace-on-full** — a receiver with a full view overwrites random
   existing entries instead of discarding the received ids, trading
   deletions of old information for retention of fresh information.
3. **wide messages** — send ``ids_per_message`` payload ids (clearing
   that many entries) per action instead of one, reducing per-id message
   overhead.

``SendForgetVariant`` implements all three behind flags; with all flags
at their defaults it behaves exactly like :class:`~repro.core.sandf.SendForget`
(a property the test suite checks), so ablation benchmarks can isolate
each optimization's effect on degree balance, duplication rate, and
dependence.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import SFParams
from repro.core.view import NodeId, View, ViewEntry, dependent_fraction
from repro.protocols.base import GossipProtocol, Message, SendEffect


class _MarkedView:
    """A view wrapper tracking mark-for-deletion state per slot.

    Marked slots are invisible to the protocol (not part of the
    outdegree, never selected for sending) but their contents can be
    *undeleted* to repair loss without duplication.
    """

    def __init__(self, size: int):
        self.view = View(size)
        self._marked: Dict[int, ViewEntry] = {}

    @property
    def outdegree(self) -> int:
        return self.view.outdegree

    @property
    def marked_count(self) -> int:
        return len(self._marked)

    def mark_slot(self, index: int) -> ViewEntry:
        """Clear ``index`` but remember its entry for possible undeletion."""
        entry = self.view.clear_slot(index)
        self._marked[index] = entry
        return entry

    def undelete_one(self, rng) -> Optional[ViewEntry]:
        """Restore a random marked entry into its original slot, if free."""
        candidates = [
            index
            for index, entry in self._marked.items()
            if self.view.get(index) is None
        ]
        if not candidates:
            return None
        index = candidates[int(rng.integers(len(candidates)))]
        entry = self._marked.pop(index)
        restored = ViewEntry(entry.node_id, dependent=True)
        self.view.store_into(index, restored)
        return restored

    def forget_marked_slot(self, index: int) -> None:
        """Drop the marked memory for a slot that got reused."""
        self._marked.pop(index, None)

    def store_random_empty(self, entry: ViewEntry, rng) -> int:
        index = self.view.store_random_empty(entry, rng)
        # A reused slot's old marked content can no longer be undeleted.
        self.forget_marked_slot(index)
        return index


class SendForgetVariant(GossipProtocol):
    """S&F with the section 5 optimizations toggleable.

    Args:
        params: the base ``(s, dL)`` parameters.
        mark_and_undelete: optimization (1) — repair loss by undeleting
            previously sent entries instead of duplicating live ones.
        replace_on_full: optimization (2) — full receivers overwrite
            random entries instead of discarding arrivals.
        ids_per_message: optimization (3) — payload ids per action
            (the analyzed protocol sends exactly 1, plus the sender id).
    """

    _views: Dict[NodeId, _MarkedView]

    def __init__(
        self,
        params: SFParams,
        mark_and_undelete: bool = False,
        replace_on_full: bool = False,
        ids_per_message: int = 1,
    ):
        super().__init__()
        if ids_per_message < 1:
            raise ValueError(
                f"ids_per_message must be at least 1, got {ids_per_message}"
            )
        if 1 + ids_per_message > params.view_size:
            raise ValueError(
                "ids_per_message + 1 cannot exceed the view size "
                f"({params.view_size})"
            )
        self.params = params
        self.mark_and_undelete = mark_and_undelete
        self.replace_on_full = replace_on_full
        self.ids_per_message = ids_per_message

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        ids = list(bootstrap_ids)
        if len(ids) % 2 != 0:
            raise ValueError("bootstrap view must have even size")
        if len(ids) > self.params.view_size:
            raise ValueError("bootstrap view exceeds view size")
        wrapped = _MarkedView(self.params.view_size)
        for index, bootstrap_id in enumerate(ids):
            wrapped.view.store_into(index, ViewEntry(bootstrap_id))
        self._admit(node_id, wrapped)

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        wrapped = self._views[node_id]
        view = wrapped.view
        self.stats.actions += 1

        # Select 1 target slot + ids_per_message payload slots, all distinct.
        wanted = 1 + self.ids_per_message
        slots = self._sample_slots(view, wanted, rng)
        entries = [view.get(i) for i in slots]
        if any(entry is None for entry in entries):
            self.stats.self_loops += 1
            return ()
        self.stats.non_self_loop_actions += 1
        self.stats.messages_sent += 1

        target_entry = entries[0]
        payload_entries = entries[1:]
        at_floor = view.outdegree - wanted < self.params.d_low

        if at_floor and self.mark_and_undelete:
            # Optimization 1: repair by undeleting marked entries rather
            # than duplicating the live ones we are about to keep.
            restored = 0
            for _ in range(wanted):
                if wrapped.undelete_one(rng) is None:
                    break
                restored += 1
            self.stats.extra["undeletions"] = (
                self.stats.extra.get("undeletions", 0) + restored
            )
            at_floor = view.outdegree - wanted < self.params.d_low

        if at_floor:
            # Duplication, as in the base protocol.
            self.stats.duplications += 1
            flags = [True] * len(payload_entries)
            sender_flag = True
        else:
            for index in slots:
                if self.mark_and_undelete:
                    wrapped.mark_slot(index)
                else:
                    view.clear_slot(index)
            flags = [False] * len(payload_entries)
            sender_flag = False

        payload = [(node_id, sender_flag)]
        payload += [
            (entry.node_id, flag) for entry, flag in zip(payload_entries, flags)
        ]
        message = Message(
            sender=node_id,
            target=target_entry.node_id,
            payload=payload,
            kind="sandf-variant",
        )
        return (SendEffect(message),)

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        wrapped = self._views.get(message.target)
        if wrapped is None:
            return ()
        view = wrapped.view
        self.stats.deliveries += 1
        incoming = list(message.payload)
        if view.empty_count < len(incoming):
            if not self.replace_on_full:
                self.stats.deletions += 1
                return ()
            # Optimization 2: overwrite random existing entries.
            overflow = len(incoming) - view.empty_count
            occupied = [i for i, entry in enumerate(view) if entry is not None]
            for _ in range(overflow):
                pick = occupied.pop(int(rng.integers(len(occupied))))
                view.clear_slot(pick)
                wrapped.forget_marked_slot(pick)
            self.stats.extra["replacements"] = (
                self.stats.extra.get("replacements", 0) + overflow
            )
        for node_id, dependent in incoming:
            wrapped.store_random_empty(ViewEntry(node_id, dependent), rng)
        return ()

    @staticmethod
    def _sample_slots(view: View, count: int, rng) -> List[int]:
        size = view.size
        if count > size:
            raise ValueError(f"cannot sample {count} distinct slots of {size}")
        chosen: List[int] = []
        pool = list(range(size))
        for _ in range(count):
            pick = int(rng.integers(len(pool)))
            chosen.append(pool.pop(pick))
        return chosen

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def view_of(self, node_id: NodeId) -> Counter:
        return self._views[node_id].view.ids()

    def outdegree(self, node_id: NodeId) -> int:
        return self._views[node_id].outdegree

    def marked_count(self, node_id: NodeId) -> int:
        return self._views[node_id].marked_count

    def undeletion_count(self) -> int:
        return self.stats.extra.get("undeletions", 0)

    def replacement_count(self) -> int:
        return self.stats.extra.get("replacements", 0)

    def dependent_fraction(self) -> float:
        """Same accounting as the base protocol (see SendForget)."""
        return dependent_fraction(
            (node_id, wrapped.view) for node_id, wrapped in self._views.items()
        )

    def check_invariant(self) -> None:
        """Validate outdegree bounds and view consistency.

        The generalized protocol changes outdegree in steps of
        ``1 + ids_per_message`` (clearing on send, storing on receive), so
        Observation 5.1's *parity* half only holds when that step is even
        (``ids_per_message`` odd, as in the base protocol).  The check
        therefore validates the [0, s] bounds and slot bookkeeping, not
        parity.
        """
        for node_id, wrapped in self._views.items():
            d = wrapped.outdegree
            if d < 0 or d > self.params.view_size:
                raise AssertionError(
                    f"node {node_id} outdegree {d} outside [0, s]"
                )
            wrapped.view.validate()
