"""Failure detection as a protocol wrapper on the step/effect seam.

:class:`FailureDetectorLayer` wraps any
:class:`~repro.protocols.base.GossipProtocol` and runs one
:class:`~repro.failure.detector.FailureDetector` per node, entirely on
the traffic the inner protocol already produces:

* every initiate step at a node is one *beat* of its local clock (the
  paper's period: each node initiates once per round in expectation),
  advancing its heartbeat and running suspicion/failure timeouts;
* every outgoing message gets the node's pending liveness rumors
  attached in the :attr:`~repro.protocols.base.Message.ext` envelope;
* every receive step refreshes the sender's record (direct evidence)
  and merges the piggybacked rumors.

The layer **draws no randomness**: detectors are deterministic and the
local clock is the node's own beat count — so a seeded engine run with
the layer installed makes exactly the same RNG draws as one without it.
In a run with no crashes the membership views are therefore
bit-identical with and without the layer (tested in
``tests/test_failure_layer.py``); the ``disabled ⇒ identical``
guarantee is simply "don't wrap".

Eviction is *traffic suppression*, not view surgery: effects addressed
to a peer the sender has declared ``FAILED`` are dropped at the layer.
To the inner protocol that is indistinguishable from message loss — the
one failure S&F is built to absorb — so Observation 5.1 (even
outdegrees in ``[dL, s]``) keeps holding.  Purging ids from views here
would break the all-or-nothing parity invariant.  Suppressed sends are
counted in ``stats.extra["fd_suppressed"]`` so the transport
conservation identity stays checkable::

    inner messages produced == engine sent (messages + replies)
                               + fd_suppressed
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.failure.detector import (
    FD_EXT_KEY,
    DetectorConfig,
    FailureDetector,
    PeerState,
)
from repro.protocols.base import (
    GossipProtocol,
    Message,
    ProtocolStats,
    SendEffect,
)

NodeId = int

#: One observed state change: ``(observer, peer, old, new, incarnation,
#: observer-local time)``.  ``old`` is ``None`` when the peer was first
#: learned.
Transition = Tuple[NodeId, NodeId, Optional[PeerState], PeerState, int, float]


def outbound(
    detector: FailureDetector, effect: SendEffect, stats: ProtocolStats
) -> bool:
    """The sender-side step, shared by the layer and the live UDP nodes.

    A send to a peer ``detector`` has declared ``FAILED`` is suppressed
    (counted in ``stats.extra["fd_suppressed"]``, returns False); any
    other send gets the pending liveness rumors piggybacked and goes out.
    """
    message = effect.message
    if detector.state_of(message.target) is PeerState.FAILED:
        stats.extra["fd_suppressed"] = stats.extra.get("fd_suppressed", 0) + 1
        return False
    blob = detector.wire_extension()
    if blob is not None:
        ext = dict(message.ext) if message.ext else {}
        ext[FD_EXT_KEY] = blob
        message.ext = ext
    return True


class FailureDetectorLayer(GossipProtocol):
    """Wrap ``inner`` with per-node SWIM detectors on its own traffic.

    The layer is a drop-in :class:`GossipProtocol`: engines drive its
    two steps exactly like the inner protocol's, and all
    state queries (views, graphs, stats) pass through, so experiment
    code does not care whether detection is installed.

    Args:
        inner: the protocol whose traffic carries the liveness gossip.
        config: detector tuning, in *periods* (one period = one beat of
            a node's local clock = one initiate action at that node).

    Every state change any detector makes is logged in :attr:`transitions`.

    The layer keeps no node table or counters of its own: ``inner`` owns
    the table, the :class:`ProtocolStats` instance and ``params`` (engines
    and churn processes read it for bootstrap sizing), so code driving the
    layer cannot tell it from ``inner``.
    """

    def __init__(
        self,
        inner: GossipProtocol,
        config: Optional[DetectorConfig] = None,
    ):
        # Deliberately no super().__init__(): a table or stats of our own
        # would shadow the inner protocol's.
        self.inner = inner
        self.config = config if config is not None else DetectorConfig()
        self.detectors: Dict[NodeId, FailureDetector] = {}
        self.transitions: List[Transition] = []
        #: Incarnation each departed node held when it was removed;
        #: restarts seed from here so their ALIVE beats the grave.
        self.retired_incarnations: Dict[NodeId, int] = {}
        existing = list(inner.node_ids())
        for node in existing:
            self._install_detector(node, existing, incarnation=0)

    # ------------------------------------------------------------------
    # Delegation to the inner protocol
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ProtocolStats:
        return self.inner.stats

    @property
    def params(self) -> Any:
        return self.inner.params

    def node_ids(self) -> List[NodeId]:
        return self.inner.node_ids()

    @property
    def members(self) -> Tuple[NodeId, ...]:
        return self.inner.members

    def has_node(self, node_id: NodeId) -> bool:
        return self.inner.has_node(node_id)

    def view_of(self, node_id: NodeId) -> Counter:
        return self.inner.view_of(node_id)

    # ------------------------------------------------------------------
    # Detector plumbing
    # ------------------------------------------------------------------

    def _install_detector(
        self, node: NodeId, known: Sequence[NodeId], incarnation: int
    ) -> None:
        detector = FailureDetector(
            node,
            config=self.config,
            incarnation=incarnation,
            on_transition=self._transition_hook(node),
        )
        detector.seed_peers([peer for peer in known if peer != node], now=0.0)
        self.detectors[node] = detector

    def _transition_hook(self, observer: NodeId) -> Callable:
        def hook(peer, old, new, incarnation, now):
            self.transitions.append((observer, peer, old, new, incarnation, now))

        return hook

    def detector_of(self, node: NodeId) -> FailureDetector:
        return self.detectors[node]

    def verdicts_on(self, peer: NodeId) -> Dict[NodeId, Optional[PeerState]]:
        """Every live detector's current state for ``peer``."""
        return {
            node: detector.state_of(peer)
            for node, detector in self.detectors.items()
            if node != peer
        }

    def failed_by_quorum(self, quorum: float = 0.5) -> List[NodeId]:
        """Peers more than ``quorum`` of live detectors call ``FAILED``."""
        if not self.detectors:
            return []
        votes: Dict[NodeId, int] = {}
        for detector in self.detectors.values():
            for peer in detector.failed():
                votes[peer] = votes.get(peer, 0) + 1
        threshold = quorum * len(self.detectors)
        return sorted(peer for peer, count in votes.items() if count > threshold)

    def summary(self) -> Dict[str, int]:
        """Aggregated detector counters across all live nodes."""
        totals: Dict[str, int] = {}
        for detector in self.detectors.values():
            for key, value in detector.counters.items():
                totals[key] = totals.get(key, 0) + value
        totals["suppressed_sends"] = self.inner.stats.extra.get("fd_suppressed", 0)
        return totals

    # ------------------------------------------------------------------
    # Population changes
    # ------------------------------------------------------------------

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        self.inner.add_node(node_id, bootstrap_ids)
        # A restarted id comes back one incarnation above its grave so its
        # ALIVE gossip resurrects FAILED records instead of dying stale.
        incarnation = self.retired_incarnations.pop(node_id, -1) + 1
        self._install_detector(node_id, list(bootstrap_ids), incarnation)

    def remove_node(self, node_id: NodeId) -> None:
        self.inner.remove_node(node_id)
        detector = self.detectors.pop(node_id, None)
        if detector is not None:
            self.retired_incarnations[node_id] = detector.incarnation

    # ------------------------------------------------------------------
    # The protocol steps — where detection actually happens
    # ------------------------------------------------------------------

    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        detector = self.detectors.get(node_id)
        if detector is not None:
            # One beat of this node's local clock; time unit = its
            # own beat count, so timeouts are phrased in periods.
            detector.beat(float(detector.heartbeat + 1))
        effects = self.inner.initiate_effects(node_id, rng)
        return self._outbound(node_id, effects)

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        detector = self.detectors.get(message.target)
        if detector is not None:
            now = float(detector.heartbeat)
            detector.observe_direct(message.sender, now)
            if message.ext:
                detector.absorb_extension(message.ext.get(FD_EXT_KEY), now)
        effects = self.inner.deliver_effects(message, rng)
        return self._outbound(message.target, effects)

    def _outbound(
        self, origin: NodeId, effects: Tuple[SendEffect, ...]
    ) -> Tuple[SendEffect, ...]:
        """Suppress sends to FAILED peers; piggyback rumors on the rest."""
        detector = self.detectors.get(origin)
        if detector is None:
            return effects
        stats = self.inner.stats
        return tuple(e for e in effects if outbound(detector, e, stats))
