"""Graph-level statistics of membership snapshots.

The good-expander consequences of independent uniform views (section 1:
"good connectivity, robustness, and low diameter") are observable here:
weak connectivity, component structure, diameter, and degree assortativity
of exported :class:`~repro.model.membership_graph.MembershipGraph` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.membership_graph import MembershipGraph


@dataclass
class GraphStatistics:
    """Structural summary of one membership-graph snapshot."""

    num_nodes: int
    num_edges: int
    weakly_connected: bool
    num_weak_components: int
    largest_component_fraction: float
    undirected_diameter: Optional[int]
    self_edges: int
    parallel_edges: int

    def is_healthy_overlay(self) -> bool:
        """Connected with a small diameter relative to log n."""
        import math

        if not self.weakly_connected or self.undirected_diameter is None:
            return False
        if self.num_nodes < 2:
            return True
        budget = max(4, int(4 * math.log2(self.num_nodes)))
        return self.undirected_diameter <= budget


def graph_statistics(
    graph: MembershipGraph, compute_diameter: bool = True
) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for a snapshot.

    Diameter is computed on the undirected simple projection (communication
    is possible along an edge in either direction once ids are known) and
    only when the graph is connected; pass ``compute_diameter=False`` to
    skip the O(V·E) cost on large snapshots.
    """
    import networkx as nx

    nx_graph = graph.to_networkx()
    undirected = nx.Graph(nx_graph.to_undirected())
    undirected.remove_edges_from(nx.selfloop_edges(undirected))
    components = list(nx.connected_components(undirected)) if undirected else []
    connected = len(components) == 1
    largest = max((len(c) for c in components), default=0)
    diameter = None
    if compute_diameter and connected and undirected.number_of_nodes() > 1:
        diameter = nx.diameter(undirected)
    self_edges = sum(graph.self_edge_count(u) for u in graph.nodes)
    parallel = sum(graph.duplicate_edge_count(u) for u in graph.nodes)
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        weakly_connected=connected,
        num_weak_components=len(components),
        largest_component_fraction=largest / max(graph.num_nodes, 1),
        undirected_diameter=diameter,
        self_edges=self_edges,
        parallel_edges=parallel,
    )
