"""The common interface implemented by every membership protocol here.

The split into :meth:`GossipProtocol.initiate_effects` (the sender's step)
and :meth:`GossipProtocol.deliver_effects` (the receiver's step) mirrors the
paper's notion of a *protocol step* — a transformation executable atomically
at a single node (section 4.1).  The engine decides whether a message
produced by the initiate step ever reaches a receive step; a lost message
simply means the receive step never runs, exactly the paper's loss model.

Pull-style protocols answer a receive step with a *reply* effect; the engine
subjects replies to the same loss model, so a push-pull action degrades
gracefully into its constituent steps under loss instead of assuming
atomicity.

**The step/effect seam.**  The two step methods are the whole
execution interface: every runtime — the serial engine, the
discrete-event engine, and the asyncio UDP runtime (:mod:`repro.runtime`)
— calls ``initiate_effects(node, rng)`` and ``deliver_effects(message,
rng)`` and routes the :class:`SendEffect` records they return through
its own transport (:mod:`repro.net.transport`).  Nothing in a protocol
assumes *how* a produced message travels: synchronously in-process,
through a delayed event queue, or as a datagram on a real lossy network.
:class:`Message` and :class:`SendEffect` are slotted, picklable
dataclasses; messages cross sockets through the schema-versioned codec
in :mod:`repro.net.wire`.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.model.membership_graph import MembershipGraph

NodeId = int


@dataclass(slots=True)
class Message:
    """A protocol message: ids in flight from ``sender`` to ``target``.

    ``payload`` carries (id, dependent-flag) pairs; for S&F it is
    ``[(u, dep_u), (w, dep_w)]`` — the sender's own id and the forwarded id.
    ``kind`` distinguishes message roles for multi-step protocols
    (e.g. ``"pull-request"`` vs ``"pull-reply"``).

    ``ext`` is an optional extension envelope for metadata piggybacked on
    protocol traffic by layers *outside* the protocol itself: one key per
    extension, each mapping to a self-versioned blob.  No protocol or
    runtime here writes or reads it — the live cluster delivers a
    message's ids and ignores its ``ext`` — and it survives only for the
    wire codec's ext tail, which the benchmark suite still probes with the
    :mod:`repro.failure` library's blob.  On the wire it is a flagged JSON
    tail after the fixed-width message (:mod:`repro.net.wire`); ``None``
    (the default) sets no flag and adds no byte.

    The record is slotted and picklable, and round-trips through the
    versioned wire codec (:func:`repro.net.wire.encode` /
    :func:`repro.net.wire.decode`) so it can cross process and network
    boundaries unchanged.
    """

    sender: NodeId
    target: NodeId
    payload: List[Tuple[NodeId, bool]]
    kind: str = "push"
    ext: Optional[Dict[str, Dict]] = None


@dataclass(slots=True)
class SendEffect:
    """Protocol output: ``message`` should be handed to the transport.

    ``reply`` marks effects produced by a *receive* step (push-pull and
    shuffle replies); engines account for them separately
    (``EngineStats.replies_*``) because under loss a reply can fail after
    the request half succeeded — the nonatomic degradation the paper's
    section 3.1 highlights.
    """

    message: Message
    reply: bool = False


@dataclass
class ProtocolStats:
    """Event counters every protocol maintains (section 6 quantities).

    ``non_self_loop_actions`` counts actions where both selected entries
    were nonempty; ``duplications`` and ``deletions`` are the loss-
    compensation events whose balance Lemma 6.6 characterizes.
    """

    actions: int = 0
    self_loops: int = 0
    non_self_loop_actions: int = 0
    messages_sent: int = 0
    duplications: int = 0
    deletions: int = 0
    deliveries: int = 0

    def duplication_probability(self) -> float:
        """Empirical Pr(duplication | non-self-loop action) — Lemma 6.7."""
        if self.non_self_loop_actions == 0:
            return 0.0
        return self.duplications / self.non_self_loop_actions

    def deletion_probability(self) -> float:
        """Empirical Pr(deletion | non-self-loop action)."""
        if self.non_self_loop_actions == 0:
            return 0.0
        return self.deletions / self.non_self_loop_actions

    def reset(self) -> None:
        self.actions = 0
        self.self_loops = 0
        self.non_self_loop_actions = 0
        self.messages_sent = 0
        self.duplications = 0
        self.deletions = 0
        self.deliveries = 0


class Population(abc.ABC):
    """What can be observed of any population of views.

    The base :class:`GossipProtocol` and
    :class:`repro.kernel.base.SimulationKernel` share: whoever can list its
    live nodes and show each one's view gets the membership graph and the
    indegree census from here, so metrics and experiments read both alike.
    """

    @abc.abstractmethod
    def node_ids(self) -> List[NodeId]:
        """All live node ids, canonical order, as a fresh list."""

    @abc.abstractmethod
    def view_of(self, node_id: NodeId) -> Counter:
        """The multiset of ids in ``node_id``'s view."""

    def outdegree(self, node_id: NodeId) -> int:
        return sum(self.view_of(node_id).values())

    def export_graph(self) -> MembershipGraph:
        """Snapshot the global membership graph (section 4's object).

        Dangling ids (pointing at removed nodes) are preserved as vertices
        so indegree bookkeeping of departed nodes remains observable.
        """
        nodes = self.node_ids()
        graph = MembershipGraph(nodes)
        for u in nodes:
            for v, multiplicity in self.view_of(u).items():
                if not graph.has_node(v):
                    graph.add_node(v)
                for _ in range(multiplicity):
                    graph.add_edge(u, v)
        return graph

    def indegrees(self) -> Dict[NodeId, int]:
        """Indegree of every live node (for Property M2 measurement)."""
        nodes = self.node_ids()
        counts: Dict[NodeId, int] = dict.fromkeys(nodes, 0)
        for u in nodes:
            for v, multiplicity in self.view_of(u).items():
                if v in counts:
                    counts[v] += multiplicity
        return counts


class GossipProtocol(Population):
    """Abstract membership protocol over a population of nodes.

    Concrete protocols own all per-node state, in one table keyed by node
    id (``_views``) whose insertion order is the *canonical node order*:
    the scheduler's ``r``-th node is the ``r``-th live id in it.  The
    engine drives protocols via :meth:`initiate_effects` and
    :meth:`deliver_effects` and observes state via ``view_of`` and
    ``export_graph``.
    """

    def __init__(self) -> None:
        self.stats = ProtocolStats()
        self._views: Dict[NodeId, Any] = {}
        # ``members`` cache; None = stale since the last join or leave.
        self._members: Optional[Tuple[NodeId, ...]] = None

    # -- population management ------------------------------------------------

    def node_ids(self) -> List[NodeId]:
        """All live node ids, canonical order, as a fresh list."""
        return list(self._views)

    @property
    def members(self) -> Tuple[NodeId, ...]:
        """``tuple(node_ids())`` without the per-read copy.

        The scheduler indexes this once per action (section 5's "a central
        entity repeatedly selects a random node" is an O(1) pick), so it is
        rebuilt lazily, only on the first read after a join or a leave.
        """
        members = self._members
        if members is None:
            members = self._members = tuple(self.node_ids())
        return members

    @property
    def population(self) -> int:
        """Number of live nodes."""
        return len(self.members)

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._views

    @abc.abstractmethod
    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        """Join ``node_id`` with the given bootstrap view contents."""

    def _admit(self, node_id: NodeId, view: Any) -> None:
        """Enter ``node_id`` into the table with its freshly built ``view``."""
        if node_id in self._views:
            raise ValueError(f"node {node_id} already exists")
        self._views[node_id] = view
        self._members = None

    def remove_node(self, node_id: NodeId) -> None:
        """Crash/leave: the node stops participating (no explicit action, §5).

        Its id may linger in other views (the engines keep delivering to it
        only if it exists, so messages to a removed node are dropped —
        indistinguishable from loss, as in the paper's leave model); it
        drains out of the system at the rate analyzed in section 6.5.2.
        """
        if node_id not in self._views:
            raise KeyError(f"unknown node {node_id}")
        del self._views[node_id]
        self._members = None

    # -- protocol steps (the step/effect seam) ----------------------------------

    @abc.abstractmethod
    def initiate_effects(self, node_id: NodeId, rng) -> Tuple[SendEffect, ...]:
        """Run one initiate action at ``node_id``; return the sends it makes."""

    @abc.abstractmethod
    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        """Run the receive step for ``message``; return any reply effects."""


class ListViewProtocol(GossipProtocol):
    """A protocol whose views are bounded lists of ids (the §3.1 baselines).

    Push, push-pull and shuffle differ only in their step rules; the list,
    its capacity, and the two randomized list operations the rules are
    written in — :meth:`_insert` and :meth:`_take` — live here.

    Args:
        view_size: capacity of each node's view.
    """

    _views: Dict[NodeId, List[NodeId]]

    def __init__(self, view_size: int):
        super().__init__()
        if view_size < 2:
            raise ValueError(f"view_size must be at least 2, got {view_size}")
        self.view_size = view_size

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        if len(bootstrap_ids) > self.view_size:
            raise ValueError("bootstrap view exceeds view size")
        self._admit(node_id, list(bootstrap_ids))

    def view_of(self, node_id: NodeId) -> Counter:
        return Counter(self._views[node_id])

    def total_edges(self) -> int:
        """System-wide id count — the attrition signal under loss."""
        return sum(len(view) for view in self._views.values())

    def _insert(self, node_id: NodeId, value: NodeId, rng) -> None:
        """Store ``value`` at ``node_id``: append, or on a full view evict
        a random entry (one draw, one deletion).  Never a self-pointer."""
        if value == node_id:
            return
        view = self._views[node_id]
        if len(view) >= self.view_size:
            view[int(rng.integers(len(view)))] = value
            self.stats.deletions += 1
        else:
            view.append(value)

    @staticmethod
    def _take(
        view: List[NodeId], count: int, excluded: NodeId, rng
    ) -> List[NodeId]:
        """Remove up to ``count`` random entries other than ``excluded``
        from ``view`` (one draw each) and return them."""
        taken: List[NodeId] = []
        candidates = [i for i, value in enumerate(view) if value != excluded]
        for _ in range(min(count, len(candidates))):
            index = candidates.pop(int(rng.integers(len(candidates))))
            taken.append(view[index])
            # Keep candidate indices valid: remove by swap with the last
            # occupied slot, then fix up any candidate pointing at it.
            last = len(view) - 1
            view[index] = view[last]
            view.pop()
            for c, cand in enumerate(candidates):
                if cand == last:
                    candidates[c] = index
        return taken

