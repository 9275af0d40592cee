"""A shuffle baseline (Cyclon-style; the paper's refs [1, 26, 27]).

Shuffle protocols *delete the ids they send* and rely on the peer's reply
to refill the freed entries.  With atomic actions this creates no spatial
dependencies — which is why the paper's analysis methodology descends from
them — but the exchange is bidirectional, so under message loss ids leak
out of the system: a lost request loses the sender's removed entries; a
lost reply loses the peer's.  Section 3.1: such protocols "are unable to
withstand message loss or node failures since the system gradually loses
more and more ids."  The baseline-comparison benchmark measures exactly
this attrition against S&F's stable edge count.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.protocols.base import ListViewProtocol, Message, SendEffect

NodeId = int

#: Wire kinds of the two halves of a shuffle exchange.
KIND_REQUEST = "shuffle-request"
KIND_REPLY = "shuffle-reply"


class ShuffleProtocol(ListViewProtocol):
    """Swap-based membership: exchange ``shuffle_length`` ids with a peer.

    Args:
        view_size: capacity of each node's view.
        shuffle_length: how many ids travel in each direction per exchange
            (including the initiator's own id in the request).
    """

    def __init__(self, view_size: int, shuffle_length: int = 3):
        super().__init__(view_size)
        if not 1 <= shuffle_length <= view_size:
            raise ValueError(
                f"shuffle_length must be in [1, {view_size}], got {shuffle_length}"
            )
        self.shuffle_length = shuffle_length

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        view = self._views[node_id]
        self.stats.actions += 1
        if not view:
            self.stats.self_loops += 1
            return ()  # isolated: the attrition end-state under loss
        self.stats.non_self_loop_actions += 1
        target = view.pop(int(rng.integers(len(view))))
        # The payload excludes further copies of the target (the target
        # would discard pointers to itself, leaking ids even on a lossless
        # network).
        to_send = [node_id] + self._take(view, self.shuffle_length - 1, target, rng)
        self.stats.messages_sent += 1
        message = Message(
            sender=node_id,
            target=target,
            payload=[(v, False) for v in to_send],
            kind=KIND_REQUEST,
        )
        return (SendEffect(message),)

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        """The receive step.

        A request produces the refill half as a typed reply effect; a
        lost reply is exactly the id-attrition channel §3.1 charges
        shuffle protocols with.
        """
        view = self._views.get(message.target)
        if view is None:
            return ()
        self.stats.deliveries += 1
        received = [v for v, _ in message.payload]
        if message.kind == KIND_REQUEST:
            # The reply excludes pointers to the requester, which it would
            # discard (see initiate_effects for the symmetric exclusion).
            reply_ids = self._take(view, len(received), message.sender, rng)
            self._absorb(message.target, received)
            if not reply_ids:
                return ()
            self.stats.messages_sent += 1
            return (
                SendEffect(
                    Message(
                        sender=message.target,
                        target=message.sender,
                        payload=[(v, False) for v in reply_ids],
                        kind=KIND_REPLY,
                    ),
                    reply=True,
                ),
            )
        # shuffle-reply
        self._absorb(message.target, received)
        return ()

    def _absorb(self, node_id: NodeId, ids: List[NodeId]) -> None:
        view = self._views[node_id]
        for value in ids:
            if value == node_id:
                continue  # never store a self-pointer
            if len(view) >= self.view_size:
                self.stats.deletions += 1
                continue
            view.append(value)

    def isolated_count(self) -> int:
        """Nodes with empty views (fully starved by loss)."""
        return sum(1 for view in self._views.values() if not view)
