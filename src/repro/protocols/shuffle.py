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

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.protocols.base import GossipProtocol, Message, SendEffect

NodeId = int

#: Wire kinds of the two halves of a shuffle exchange.
KIND_REQUEST = "shuffle-request"
KIND_REPLY = "shuffle-reply"


class ShuffleProtocol(GossipProtocol):
    """Swap-based membership: exchange ``shuffle_length`` ids with a peer.

    Args:
        view_size: capacity of each node's view.
        shuffle_length: how many ids travel in each direction per exchange
            (including the initiator's own id in the request).
    """

    _views: Dict[NodeId, List[NodeId]]

    def __init__(self, view_size: int, shuffle_length: int = 3):
        super().__init__()
        if view_size < 2:
            raise ValueError(f"view_size must be at least 2, got {view_size}")
        if not 1 <= shuffle_length <= view_size:
            raise ValueError(
                f"shuffle_length must be in [1, {view_size}], got {shuffle_length}"
            )
        self.view_size = view_size
        self.shuffle_length = shuffle_length

    # -- population ------------------------------------------------------

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        if len(bootstrap_ids) > self.view_size:
            raise ValueError("bootstrap view exceeds view size")
        self._admit(node_id, list(bootstrap_ids))

    # -- protocol steps ----------------------------------------------------

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        view = self._views[node_id]
        self.stats.actions += 1
        if not view:
            self.stats.self_loops += 1
            return ()  # isolated: the attrition end-state under loss
        self.stats.non_self_loop_actions += 1
        target_index = int(rng.integers(len(view)))
        target = view.pop(target_index)
        to_send: List[NodeId] = [node_id]
        # Sample payload ids, excluding further copies of the target (the
        # target would discard pointers to itself, leaking ids even on a
        # lossless network).
        candidates = [i for i, value in enumerate(view) if value != target]
        budget = min(self.shuffle_length - 1, len(candidates))
        for _ in range(budget):
            pick = int(rng.integers(len(candidates)))
            index = candidates.pop(pick)
            to_send.append(view[index])
            # Keep candidate indices valid: remove by swap with the last
            # occupied slot, then fix up any candidate pointing at it.
            last = len(view) - 1
            view[index] = view[last]
            view.pop()
            for c, cand in enumerate(candidates):
                if cand == last:
                    candidates[c] = index
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
            # Sample the reply excluding pointers to the requester, which it
            # would discard (see initiate_effects for the symmetric exclusion).
            reply_ids: List[NodeId] = []
            candidates = [
                i for i, value in enumerate(view) if value != message.sender
            ]
            budget = min(len(received), len(candidates))
            for _ in range(budget):
                pick = int(rng.integers(len(candidates)))
                index = candidates.pop(pick)
                reply_ids.append(view[index])
                last = len(view) - 1
                view[index] = view[last]
                view.pop()
                for c, cand in enumerate(candidates):
                    if cand == last:
                        candidates[c] = index
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

    # -- observation -------------------------------------------------------

    def view_of(self, node_id: NodeId) -> Counter:
        return Counter(self._views[node_id])

    def total_edges(self) -> int:
        """System-wide id count — the attrition signal under loss."""
        return sum(len(view) for view in self._views.values())

    def isolated_count(self) -> int:
        """Nodes with empty views (fully starved by loss)."""
        return sum(1 for view in self._views.values() if not view)
