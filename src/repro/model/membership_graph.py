"""Directed multigraph of membership information (section 4 of the paper).

``MembershipGraph`` stores, for every node ``u``, the multiset of ids in
``u``'s local view.  It provides the degree accessors the analysis uses
(outdegree ``d(u)``, indegree ``din(u)``, sum degree ``ds(u) = d + 2·din``),
weak-connectivity checks, conversion to :mod:`networkx` for graph statistics,
and a canonical hashable encoding used by the global Markov-chain enumerator
of section 7.2.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Tuple

if TYPE_CHECKING:
    # networkx is imported where it is called: every `repro` command
    # imports this module and only graph statistics need the library.
    import networkx as nx

NodeId = int
Edge = Tuple[NodeId, NodeId]


class MembershipGraph:
    """A directed multigraph where edge ``(u, v)`` means ``v ∈ u.lv``.

    The multigraph view is the paper's analytical object; the protocol
    engines maintain richer per-slot state (see :class:`repro.core.view.View`)
    and can export to this representation at any time.
    """

    def __init__(self, nodes: Iterable[NodeId] = ()):
        self._out: Dict[NodeId, Counter] = {}
        self._indegree: Dict[NodeId, int] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], nodes: Iterable[NodeId] = ()
    ) -> "MembershipGraph":
        """Build a graph from an edge multiset, adding endpoints as nodes."""
        graph = cls(nodes)
        for u, v in edges:
            if u not in graph._out:
                graph.add_node(u)
            if v not in graph._out:
                graph.add_node(v)
            graph.add_edge(u, v)
        return graph

    @classmethod
    def random_regular(
        cls, n: int, outdegree: int, rng
    ) -> "MembershipGraph":
        """Build a graph where every node has ``outdegree`` uniform out-edges.

        Self-edges are avoided.  This is the standard "sufficiently connected"
        initial topology used when studying convergence from a good start.
        """
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        if outdegree > n - 1:
            raise ValueError(
                f"outdegree {outdegree} impossible without self-edges for n={n}"
            )
        graph = cls(range(n))
        for u in range(n):
            candidates = [v for v in range(n) if v != u]
            targets = rng.choice(len(candidates), size=outdegree, replace=False)
            for index in targets:
                graph.add_edge(u, candidates[int(index)])
        return graph

    @classmethod
    def star(cls, n: int, center: NodeId = 0) -> "MembershipGraph":
        """Adversarial initial topology: every node points at ``center``.

        Each non-center node holds two copies of the center id (outdegree
        must be even for S&F); the center points at the first two
        non-center nodes.  Used by the load-balance experiment
        (Property M2) to demonstrate convergence from a maximally unbalanced
        start.
        """
        graph = cls(range(n))
        others = [v for v in range(n) if v != center]
        for u in others:
            graph.add_edge(u, center)
            graph.add_edge(u, center)
        for v in others[:2]:
            graph.add_edge(center, v)
        return graph

    @classmethod
    def ring(cls, n: int, hops: int = 1) -> "MembershipGraph":
        """A directed ring where each node points at its next ``hops`` nodes.

        With ``hops=2`` every outdegree is even, satisfying S&F's invariant.
        A high-diameter initial topology for convergence experiments.
        """
        graph = cls(range(n))
        for u in range(n):
            for step in range(1, hops + 1):
                graph.add_edge(u, (u + step) % n)
        return graph

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (no-op if present)."""
        if node not in self._out:
            self._out[node] = Counter()
            self._indegree[node] = 0

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all its incident edges.

        Models a crash/leave at the graph level: other nodes may still hold
        the id (dangling edges are dropped here because the multigraph tracks
        only live nodes; engines model dangling ids explicitly).
        """
        if node not in self._out:
            raise KeyError(f"unknown node {node}")
        # Drop the node's out-edges (adjusting targets' indegrees), its own
        # indegree entry, and every other node's edges pointing at it.
        for target, multiplicity in self._out.pop(node).items():
            if target != node:
                self._indegree[target] -= multiplicity
        self._indegree.pop(node)
        for counter in self._out.values():
            counter.pop(node, None)

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add one occurrence of ``v`` to ``u``'s view."""
        if u not in self._out or v not in self._out:
            raise KeyError(f"both endpoints must exist (got {u} -> {v})")
        self._out[u][v] += 1
        self._indegree[v] += 1

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove one occurrence of ``v`` from ``u``'s view."""
        count = self._out.get(u, Counter())[v]
        if count <= 0:
            raise KeyError(f"edge ({u}, {v}) not present")
        if count == 1:
            del self._out[u][v]
        else:
            self._out[u][v] = count - 1
        self._indegree[v] -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._out)

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return sum(sum(counter.values()) for counter in self._out.values())

    def has_node(self, node: NodeId) -> bool:
        return node in self._out

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return self._out.get(u, Counter())[v] > 0

    def multiplicity(self, u: NodeId, v: NodeId) -> int:
        """Number of occurrences of ``v`` in ``u``'s view."""
        return self._out.get(u, Counter())[v]

    def out_view(self, u: NodeId) -> Counter:
        """The multiset of ids in ``u``'s view (a copy)."""
        return Counter(self._out[u])

    def out_edges(self, u: NodeId) -> Iterator[NodeId]:
        """Iterate over out-neighbors of ``u`` with multiplicity."""
        for v, multiplicity in self._out[u].items():
            for _ in range(multiplicity):
                yield v

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges with multiplicity."""
        for u, counter in self._out.items():
            for v, multiplicity in counter.items():
                for _ in range(multiplicity):
                    yield (u, v)

    def outdegree(self, u: NodeId) -> int:
        """``d(u)``: number of (nonempty) out-entries of ``u``."""
        return sum(self._out[u].values())

    def indegree(self, u: NodeId) -> int:
        """``din(u)``: number of view entries across the system holding ``u``."""
        return self._indegree[u]

    def sum_degree(self, u: NodeId) -> int:
        """``ds(u) = d(u) + 2·din(u)`` (Definition 6.1)."""
        return self.outdegree(u) + 2 * self.indegree(u)

    def sum_degree_vector(self) -> Dict[NodeId, int]:
        """The vector ``d̄s`` mapping each node to its sum degree (§7.2)."""
        return {u: self.sum_degree(u) for u in self._out}

    def self_edge_count(self, u: NodeId) -> int:
        """Number of self-edges ``(u, u)`` — always labeled dependent."""
        return self._out[u][u]

    def duplicate_edge_count(self, u: NodeId) -> int:
        """Number of redundant parallel out-edges at ``u``.

        An id with multiplicity ``m > 1`` contributes ``m − 1`` duplicates;
        the paper counts all but one of a dependent group as dependent.
        """
        return sum(m - 1 for m in self._out[u].values() if m > 1)

    # ------------------------------------------------------------------
    # Connectivity / export
    # ------------------------------------------------------------------

    def is_weakly_connected(self) -> bool:
        """True if an undirected path joins every pair of nodes."""
        if self.num_nodes <= 1:
            return True
        adjacency: Dict[NodeId, set] = {u: set() for u in self._out}
        for u, counter in self._out.items():
            for v in counter:
                if v != u:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        start = next(iter(adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == self.num_nodes

    def weakly_connected_components(self) -> List[FrozenSet[NodeId]]:
        """Return the weakly connected components as frozensets."""
        import networkx as nx

        return [
            frozenset(component)
            for component in nx.weakly_connected_components(self.to_networkx())
        ]

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export to a :class:`networkx.MultiDiGraph` for graph statistics."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(self._out)
        graph.add_edges_from(self.edges())
        return graph

    def canonical_state(self) -> Tuple[Tuple[NodeId, Tuple[Tuple[NodeId, int], ...]], ...]:
        """A hashable canonical encoding of the global state.

        Views are multisets, so slot order is irrelevant to the dynamics;
        sorting by node id and by target id yields a canonical form suitable
        for dict keys in the global-MC enumeration (section 7.2).
        """
        return tuple(
            (u, tuple(sorted(self._out[u].items())))
            for u in sorted(self._out)
        )

    def copy(self) -> "MembershipGraph":
        clone = MembershipGraph(self._out)
        for u, counter in self._out.items():
            clone._out[u] = Counter(counter)
        clone._indegree = dict(self._indegree)
        return clone

    # ------------------------------------------------------------------
    # Dunder / debugging
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MembershipGraph):
            return NotImplemented
        return self.canonical_state() == other.canonical_state()

    def __hash__(self) -> int:
        return hash(self.canonical_state())

    def __repr__(self) -> str:
        return (
            f"MembershipGraph(nodes={self.num_nodes}, edges={self.num_edges})"
        )

    def validate(self) -> None:
        """Internal consistency check: indegree cache matches edge multiset."""
        recomputed: Dict[NodeId, int] = {u: 0 for u in self._out}
        for u, counter in self._out.items():
            for v, multiplicity in counter.items():
                if v not in recomputed:
                    raise AssertionError(f"edge ({u}, {v}) points outside graph")
                if multiplicity < 0:
                    raise AssertionError(f"negative multiplicity on ({u}, {v})")
                recomputed[v] += multiplicity
        if recomputed != self._indegree:
            raise AssertionError("indegree cache out of sync with edges")
