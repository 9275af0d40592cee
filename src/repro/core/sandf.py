"""The Send & Forget protocol (section 5, Figure 5.1).

Each node ``u`` keeps a view of ``s`` slots.  One *action*:

``S&F-InitiateAction_u()``
    1. select two distinct slots ``i ≠ j`` uniformly at random;
    2. let ``v = u.lv[i]``, ``w = u.lv[j]``; if either is ⊥ do nothing
       (a *self-loop transformation*);
    3. send ``[u, w]`` to ``v``;
    4. if ``d(u) > dL`` clear both slots, otherwise keep them
       (*duplication* — the loss-compensation mechanism).

``S&F-Receive_u(v1, v2)``
    If ``d(u) < s``, store both received ids into uniformly random empty
    slots; otherwise *delete* them (drop the message content).

The protocol never retransmits and keeps no bookkeeping about in-flight
messages: after sending, it forgets.  Message loss therefore simply means
the receive step never runs — the sender has already cleared (or kept) its
slots either way, which is exactly the nonatomic-action model the paper
analyzes.

Dependence labels (see :mod:`repro.core.view`) are carried so experiments
can measure spatial independence (Property M4) against the
``α ≥ 1 − 2(ℓ+δ)`` bound of Lemma 7.9.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

from repro.core.params import SFParams
from repro.core.view import NodeId, View, dependent_fraction
from repro.protocols.base import GossipProtocol, Message, SendEffect

#: Wire kind of an S&F ``[u, w]`` message.  S&F is fire-and-forget — there
#: is no reply kind; the receive step never produces an effect.
KIND_SANDF = "sandf"


class SendForget(GossipProtocol):
    """Population of nodes running S&F with shared parameters.

    Args:
        params: the validated ``(s, dL)`` pair.

    Node state is owned here; drive the protocol with an engine from
    :mod:`repro.engine` or call :meth:`initiate_effects` /
    :meth:`deliver_effects` directly.
    """

    _views: Dict[NodeId, View]

    def __init__(self, params: SFParams):
        super().__init__()
        self.params = params

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        """Join with a bootstrap view.

        The paper requires a joiner to know at least ``dL`` live ids (and
        S&F keeps outdegrees even), so ``bootstrap_ids`` must have even
        length of at least ``dL``; ids may repeat (e.g. copied from another
        node's view) and must fit in the view.
        """
        ids = list(bootstrap_ids)
        self.params.validate_bootstrap(len(ids))
        self._admit(node_id, View(self.params.view_size, ids))

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        """``S&F-InitiateAction`` at ``node_id``: at most one send."""
        i, j = self._views[node_id].sample_two_slots(rng)
        message = self.initiate_at(node_id, i, j)
        return () if message is None else (SendEffect(message),)

    def initiate_at(self, node_id: NodeId, i: int, j: int) -> Optional[Message]:
        """The initiate action with the slot pair ``(i, j)`` already chosen.

        This is the deterministic core of ``S&F-InitiateAction`` (Fig 5.1
        left, lines 3-7); :meth:`initiate_effects` samples the slots and the
        kernel layer supplies pre-drawn ones.
        """
        view = self._views[node_id]
        self.stats.actions += 1
        target = view.id_at(i)
        payload = view.id_at(j)
        if target is None or payload is None:
            self.stats.self_loops += 1
            return None
        self.stats.non_self_loop_actions += 1
        self.stats.messages_sent += 1
        duplicated = view.outdegree <= self.params.d_low
        if duplicated:
            # Duplication (Fig 5.2(c)): the entries stay put and the receiver
            # gains correlated copies.  The paper labels "all but one" edge of
            # each dependent group as dependent; we keep the sender's entries
            # as the representatives and label the receiver's new copies.
            self.stats.duplications += 1
            payload_flag = True
            sender_flag = True
        else:
            view.clear_slot(i)
            view.clear_slot(j)
            # "Sent without duplication": the moved information becomes
            # independent at the receiver (Fig 7.1's dependent→independent
            # transition).
            payload_flag = False
            sender_flag = False
        return Message(
            sender=node_id,
            target=target,
            payload=[(node_id, sender_flag), (payload, payload_flag)],
            kind=KIND_SANDF,
        )

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        """``S&F-Receive`` at the message target.  Never produces a reply."""
        view = self._views.get(message.target)
        # A departed target is indistinguishable from loss for the sender.
        if view is not None and self._accept(view, len(message.payload)):
            for node_id, dependent in message.payload:
                view.store_random_empty(node_id, dependent, rng)
        return ()

    def deliver_ranked(self, message: Message, ranks: Sequence[float]) -> None:
        """``S&F-Receive`` with pre-drawn empty-slot uniforms.

        The kernel layer's canonical discipline: the ``k``-th received id
        goes into the ``rank_from_uniform(ranks[k], empties)``-th
        lowest-indexed empty slot.  Semantically identical to
        :meth:`deliver_effects`; only the source of randomness differs.
        """
        view = self._views.get(message.target)
        if view is None:
            return
        if not self._accept(view, len(message.payload)):
            return
        for (node_id, dependent), u in zip(message.payload, ranks):
            empties = view.empty_count
            rank = min(int(u * empties), empties - 1)
            view.store_into(view.nth_empty_slot(rank), node_id, dependent)

    def _accept(self, view: View, payload_size: int) -> bool:
        """The Fig 5.1 right, line 2 capacity gate, with stats.

        Deletion is *all-or-nothing*: the guard is ``d(u) < s`` over the
        whole message, so when exactly one slot is empty and two ids
        arrive, **both** are deleted — the protocol never stores a partial
        payload.  Storing one id would create an odd outdegree and break
        Observation 5.1 (outdegrees stay even), which the section 6
        Markov chains rely on; since views are near-full only transiently,
        the paper accepts the extra deletion instead.
        """
        self.stats.deliveries += 1
        if view.empty_count < payload_size:
            self.stats.deletions += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def view_of(self, node_id: NodeId) -> Counter:
        return self._views[node_id].ids()

    def raw_view(self, node_id: NodeId) -> View:
        """The live :class:`View` object (slot-level, with dependence flags)."""
        return self._views[node_id]

    def outdegree(self, node_id: NodeId) -> int:
        return self._views[node_id].outdegree

    def check_invariant(self) -> None:
        """Assert Observation 5.1 for every node: outdegree even, in [dL, s].

        A node that bootstrapped with outdegree exactly ``dL`` may only grow;
        clearing requires ``d > dL`` and changes degree by 2, so parity and
        bounds are preserved by every step.
        """
        for node_id, view in self._views.items():
            d = view.outdegree
            if d % 2 != 0:
                raise AssertionError(f"node {node_id} has odd outdegree {d}")
            if not self.params.d_low <= d <= self.params.view_size:
                raise AssertionError(
                    f"node {node_id} outdegree {d} outside "
                    f"[{self.params.d_low}, {self.params.view_size}]"
                )
            view.validate()

    def dependent_fraction(self) -> float:
        """The empirical ``1 − α`` (see :func:`repro.core.view.dependent_fraction`)."""
        return dependent_fraction(self._views.items())
