"""Graph-level protocol transformations (sections 4, 5, and the appendix).

These operate directly on :class:`~repro.model.membership_graph.MembershipGraph`
objects and mirror the paper's modeling of protocol actions as random graph
transformations.  The protocol engines in :mod:`repro.core` maintain richer
slot-level state; this module is the analytical counterpart used by the
global-Markov-chain enumeration (section 7.2) and by reachability tests of
the appendix lemmas.  The enumeration acts on :class:`ViewTuples`, an
encoding of the same graphs as plain tuples, so that a successor costs at
most two view copies rather than a graph copy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.model.membership_graph import MembershipGraph, NodeId


def apply_send(
    graph: MembershipGraph,
    initiator: NodeId,
    target: NodeId,
    payload: NodeId,
    d_low: int,
) -> bool:
    """Apply the send step of an S&F action in place.

    The initiator ``u`` selected view entries holding ``target`` and
    ``payload``; it clears both unless its outdegree is at the lower
    threshold ``d_low`` (a *duplication*, Figure 5.2(c)).

    Returns ``True`` if the entries were cleared, ``False`` on duplication.
    Raises ``KeyError`` if the named entries are not present.
    """
    if target == payload:
        if graph.multiplicity(initiator, target) < 2:
            raise KeyError(
                f"node {initiator} lacks two copies of {target} to send"
            )
    else:
        if not graph.has_edge(initiator, target):
            raise KeyError(f"edge ({initiator}, {target}) not present")
        if not graph.has_edge(initiator, payload):
            raise KeyError(f"edge ({initiator}, {payload}) not present")
    if graph.outdegree(initiator) > d_low:
        graph.remove_edge(initiator, target)
        graph.remove_edge(initiator, payload)
        return True
    return False


def apply_receive(
    graph: MembershipGraph,
    receiver: NodeId,
    sender: NodeId,
    payload: NodeId,
    view_size: int,
) -> bool:
    """Apply the receive step of an S&F action in place.

    The receiver adds both ids from the message ``[sender, payload]`` into
    empty view entries, unless its view is full (``d(receiver) = s``), in
    which case the ids are *deleted* (Figure 5.2(d)) and nothing changes.

    Returns ``True`` if the ids were stored, ``False`` on deletion.
    """
    if graph.outdegree(receiver) < view_size:
        graph.add_edge(receiver, sender)
        graph.add_edge(receiver, payload)
        return True
    return False


def sandf_action(
    graph: MembershipGraph,
    initiator: NodeId,
    target: NodeId,
    payload: NodeId,
    d_low: int,
    view_size: int,
    lost: bool,
) -> MembershipGraph:
    """Return the graph after one full S&F action (send + receive steps).

    ``lost=True`` models message loss: the send step still executes (the
    sender cannot detect loss and cannot retransmit), but the receive step
    never runs.  The input graph is not mutated.
    """
    result = graph.copy()
    apply_send(result, initiator, target, payload, d_low)
    if not lost:
        apply_receive(result, target, initiator, payload, view_size)
    return result


def enumerate_action_outcomes(
    graph: MembershipGraph,
    initiator: NodeId,
    d_low: int,
    view_size: int,
    loss_rate: float,
) -> List[Tuple[float, MembershipGraph]]:
    """Enumerate all (probability, successor) outcomes of ``initiator`` acting.

    Probabilities follow the protocol of Figure 5.1: two distinct slots out
    of ``view_size`` are chosen uniformly at random; if either is empty the
    action is a self-loop.  For nonempty ordered pairs with values
    ``(target, payload)``, the message is lost with probability
    ``loss_rate``.  The returned probabilities sum to 1 (self-loop mass is
    aggregated onto the unchanged input graph).

    This is :meth:`ViewTuples.outcomes` on ``graph``'s encoding, with each
    successor decoded back into a graph.
    """
    layout = ViewTuples(graph.nodes)
    return [
        (prob, layout.decode(successor))
        for prob, _, successor in layout.outcomes(
            layout.encode(graph), initiator, d_low, view_size, loss_rate
        )
    ]


# A view as ``(id, count)`` pairs in ``Counter`` insertion order, and a
# global state as one view per node in a fixed node order.
ViewTuple = Tuple[Tuple[NodeId, int], ...]
ViewTupleState = Tuple[ViewTuple, ...]
CanonicalState = Tuple[Tuple[NodeId, ViewTuple], ...]


class ViewTuples:
    """Membership graphs over a fixed node set, encoded as tuples of views.

    ``state[i]`` is ``nodes[i]``'s view.  An S&F action on a state is the
    same sequence of ``Counter`` updates :func:`sandf_action` makes on a
    graph copy — an added id increments in place or is appended, a
    removed one decrements and is deleted at zero — so a decoded successor
    equals that copy entry for entry, in the same order.  The order is kept
    rather than sorted because it decides which of two equal successors
    survives a merge, and so the order an enumeration discovers states in.
    """

    def __init__(self, nodes: List[NodeId]):
        self.nodes: Tuple[NodeId, ...] = tuple(nodes)
        self.position: Dict[NodeId, int] = {u: i for i, u in enumerate(self.nodes)}
        self._by_id = sorted(range(len(self.nodes)), key=self.nodes.__getitem__)

    def encode(self, graph: MembershipGraph) -> ViewTupleState:
        return tuple(tuple(graph.out_view(u).items()) for u in self.nodes)

    def decode(self, state: ViewTupleState) -> MembershipGraph:
        return MembershipGraph.from_edges(
            (
                (u, v)
                for u, view in zip(self.nodes, state)
                for v, count in view
                for _ in range(count)
            ),
            nodes=self.nodes,
        )

    def canonical(self, state: ViewTupleState) -> CanonicalState:
        """``decode(state).canonical_state()``, without building the graph."""
        return tuple((self.nodes[i], tuple(sorted(state[i]))) for i in self._by_id)

    def is_weakly_connected(self, state: ViewTupleState) -> bool:
        """``decode(state).is_weakly_connected()``."""
        if len(state) <= 1:
            return True
        position = self.position
        adjacency: List[set] = [set() for _ in state]
        for i, view in enumerate(state):
            for v, _ in view:
                j = position[v]
                if j != i:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            for neighbor in adjacency[frontier.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(state)

    def outcomes(
        self,
        state: ViewTupleState,
        initiator: NodeId,
        d_low: int,
        view_size: int,
        loss_rate: float,
    ) -> List[Tuple[float, CanonicalState, ViewTupleState]]:
        """``(probability, canonical key, successor)`` of ``initiator`` acting.

        Successors that are the same graph are merged, the mass landing on
        the first one produced; the self-loop mass comes last, on ``state``
        itself.  See :func:`enumerate_action_outcomes`.
        """
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        i = self.position[initiator]
        view = state[i]
        d = sum(count for _, count in view)
        slots = view_size * (view_size - 1)
        merged: Dict[CanonicalState, list] = {}
        self_loop = 1.0 - d * (d - 1) / slots

        for target, target_count in view:
            for payload, payload_count in view:
                if target == payload:
                    pair_prob = target_count * (target_count - 1) / slots
                else:
                    pair_prob = target_count * payload_count / slots
                if pair_prob == 0.0:
                    continue
                if loss_rate < 1.0:
                    self._merge(
                        merged,
                        self._act(state, i, d, target, payload, d_low, view_size, False),
                        pair_prob * (1.0 - loss_rate),
                    )
                if loss_rate > 0.0:
                    self._merge(
                        merged,
                        self._act(state, i, d, target, payload, d_low, view_size, True),
                        pair_prob * loss_rate,
                    )

        results = [(prob, key, successor) for key, (successor, prob) in merged.items()]
        if self_loop > 1e-15:
            results.append((self_loop, self.canonical(state), state))
        return results

    def _merge(self, merged: Dict[CanonicalState, list], successor, prob: float) -> None:
        key = self.canonical(successor)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [successor, prob]
        else:
            entry[1] += prob

    def _act(
        self,
        state: ViewTupleState,
        i: int,
        d: int,
        target: NodeId,
        payload: NodeId,
        d_low: int,
        view_size: int,
        lost: bool,
    ) -> ViewTupleState:
        """:func:`sandf_action` by ``nodes[i]`` (outdegree ``d``) on ``state``."""
        successor = list(state)
        sender = dict(state[i])
        if d > d_low:
            _take(sender, target)
            _take(sender, payload)
            successor[i] = tuple(sender.items())
        if not lost:
            j = self.position[target]
            receiver = sender if j == i else dict(state[j])
            if sum(receiver.values()) < view_size:
                _put(receiver, self.nodes[i])
                _put(receiver, payload)
                successor[j] = tuple(receiver.items())
        return tuple(successor)


def _take(view: Dict[NodeId, int], v: NodeId) -> None:
    count = view[v]
    if count == 1:
        del view[v]
    else:
        view[v] = count - 1


def _put(view: Dict[NodeId, int], v: NodeId) -> None:
    view[v] = view.get(v, 0) + 1


# ----------------------------------------------------------------------
# Appendix transformations (used to test reachability lemmas)
# ----------------------------------------------------------------------


def edge_exchange(
    graph: MembershipGraph,
    u: NodeId,
    w: NodeId,
    v: NodeId,
    z: NodeId,
    d_low: int,
    view_size: int,
) -> MembershipGraph:
    """The appendix's *edge exchange* between neighbors ``u`` and ``v``.

    Removes edges ``(u, w)`` and ``(v, z)``, creating ``(u, z)`` and
    ``(v, w)`` instead, implemented by two loss-free S&F actions exactly as
    in the appendix: ``u`` sends ``[u, w]`` to ``v``; then ``v`` sends
    ``[v, z]`` back to ``u``.

    Prerequisites (checked): edge ``(u, v)`` exists, ``d(u) > d_low`` and
    ``d(v) < view_size``.  The input graph is not mutated.
    """
    if not graph.has_edge(u, v):
        raise ValueError(f"edge exchange requires edge ({u}, {v})")
    if graph.outdegree(u) <= d_low:
        raise ValueError(f"edge exchange requires d({u}) > d_low={d_low}")
    if graph.outdegree(v) >= view_size:
        raise ValueError(f"edge exchange requires d({v}) < s={view_size}")
    step1 = sandf_action(graph, u, v, w, d_low, view_size, lost=False)
    # After step 1, v holds u (just received) and z; v's send must clear, so
    # its outdegree must exceed d_low — guaranteed because it just grew by 2.
    step2 = sandf_action(step1, v, u, z, d_low, view_size, lost=False)
    return step2


def degree_borrowing(
    graph: MembershipGraph,
    u: NodeId,
    v: NodeId,
    d_low: int,
    view_size: int,
) -> MembershipGraph:
    """The appendix's *degree borrowing* between neighbors ``u`` and ``v``.

    Decreases ``d(u)`` by 2 and increases ``d(v)`` by 2 while keeping both
    sum degrees invariant, implemented by ``u`` initiating one loss-free
    action toward ``v``.  Prerequisites (checked): ``v ∈ u.lv``,
    ``d(u) > d_low`` and ``d(v) < view_size``.
    """
    if not graph.has_edge(u, v):
        raise ValueError(f"degree borrowing requires edge ({u}, {v})")
    if graph.outdegree(u) <= d_low:
        raise ValueError(f"degree borrowing requires d({u}) > d_low={d_low}")
    if graph.outdegree(v) >= view_size:
        raise ValueError(f"degree borrowing requires d({v}) < s={view_size}")
    view = graph.out_view(u)
    others = sorted(t for t in view if t != v)
    if others:
        payload = others[0]
    elif view[v] >= 2:
        payload = v
    else:
        raise ValueError(f"node {u} has no second entry to send")
    return sandf_action(graph, u, v, payload, d_low, view_size, lost=False)
