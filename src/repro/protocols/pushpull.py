"""A push-pull baseline (Allavena/Demers/Hopcroft-style; the paper's ref [2]).

Combines the two components section 3.1 identifies as crucial:

* **reinforcement by push** — the initiator sends its own id to a random
  neighbor, fixing representation nonuniformity;
* **mixing by pull** — the neighbor replies with a random id from its own
  view, spreading membership information.

Both nodes keep the ids they send, so like the push baseline this builds
neighbor-view dependence; and because the action is bidirectional, under
loss a pull can silently fail after the push half succeeded — the kind of
nonatomic interleaving prior analyses assumed away and that S&F was
designed to avoid.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.base import ListViewProtocol, Message, SendEffect

NodeId = int

#: Wire kinds of the two halves of a push-pull exchange.
KIND_REQUEST = "pushpull-request"
KIND_REPLY = "pushpull-reply"


class PushPullProtocol(ListViewProtocol):
    """Reinforcement-by-push + mixing-by-pull with fixed-size views.

    Args:
        view_size: capacity of each node's view; views are kept full by
            replacing random entries on insertion once at capacity.
    """

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        view = self._views[node_id]
        self.stats.actions += 1
        if not view:
            self.stats.self_loops += 1
            return ()
        self.stats.non_self_loop_actions += 1
        target = view[int(rng.integers(len(view)))]
        self.stats.messages_sent += 1
        message = Message(
            sender=node_id,
            target=target,
            payload=[(node_id, False)],  # reinforcement: push own id
            kind=KIND_REQUEST,
        )
        return (SendEffect(message),)

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        """The receive step.

        A request produces the pull half as a typed reply effect; whether
        that reply survives the network is the transport's business — the
        nonatomic degradation under loss the paper's §3.1 describes.
        """
        view = self._views.get(message.target)
        if view is None:
            return ()
        self.stats.deliveries += 1
        if message.kind == KIND_REQUEST:
            self._insert(message.target, message.sender, rng)
            if not view:
                return ()
            pulled = view[int(rng.integers(len(view)))]  # mixing: pull a view id
            self.stats.messages_sent += 1
            return (
                SendEffect(
                    Message(
                        sender=message.target,
                        target=message.sender,
                        payload=[(pulled, False)],
                        kind=KIND_REPLY,
                    ),
                    reply=True,
                ),
            )
        # pushpull-reply: the initiator absorbs the pulled id.
        for value, _ in message.payload:
            self._insert(message.target, value, rng)
        return ()
