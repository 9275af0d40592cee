"""A push baseline (lpbcast-style; the paper's ref [13]).

Push protocols *keep the ids they send*: an action copies the sender's own
id (reinforcement) and some view ids (mixing) to a random neighbor, which
merges them into its view, evicting random entries on overflow.  Keeping
sent ids makes the protocol trivially immune to loss — nothing is removed
until an eviction — but every successful push leaves correlated copies in
neighboring views.  The paper (section 3.1): "Most protocols ... keep the
sent ids, thus inducing dependence between neighbor views."

The baseline-comparison benchmark measures this as neighbor-view overlap
growing well beyond the i.i.d.-uniform level, in contrast to S&F's bounded
``2(ℓ+δ)`` dependence.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.protocols.base import ListViewProtocol, Message, SendEffect

NodeId = int

#: Wire kind of a push message (the protocol's only message role).
KIND_PUSH = "push"


class PushProtocol(ListViewProtocol):
    """Copy-based membership: push own id plus ``gossip_length`` view ids.

    Args:
        view_size: capacity of each node's view.
        gossip_length: number of view ids copied per push (in addition to
            the sender's own id).
    """

    def __init__(self, view_size: int, gossip_length: int = 2):
        super().__init__(view_size)
        if not 0 <= gossip_length <= view_size:
            raise ValueError(
                f"gossip_length must be in [0, {view_size}], got {gossip_length}"
            )
        self.gossip_length = gossip_length

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        view = self._views[node_id]
        self.stats.actions += 1
        if not view:
            self.stats.self_loops += 1
            return ()
        self.stats.non_self_loop_actions += 1
        target = view[int(rng.integers(len(view)))]  # kept in the view
        payload: List[NodeId] = [node_id]  # reinforcement component
        budget = min(self.gossip_length, len(view))
        for _ in range(budget):  # mixing component (ids copied, not moved)
            payload.append(view[int(rng.integers(len(view)))])
        self.stats.messages_sent += 1
        message = Message(
            sender=node_id,
            target=target,
            payload=[(v, False) for v in payload],
            kind=KIND_PUSH,
        )
        return (SendEffect(message),)

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        if message.target not in self._views:
            return ()
        self.stats.deliveries += 1
        for value, _ in message.payload:
            self._insert(message.target, value, rng)
        return ()
