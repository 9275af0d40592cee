"""Graph-level statistics of membership snapshots.

The good-expander consequences of independent uniform views (section 1:
"good connectivity, robustness, and low diameter") are observable here:
weak connectivity, component structure, diameter, and degree assortativity
of exported :class:`~repro.model.membership_graph.MembershipGraph` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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


def _adjacency(source):
    """The snapshot as a CSR matrix of edge multiplicities over vertex
    indices (duplicates summed, so ``nnz`` counts distinct pairs).

    Array-backed kernels are read straight from their id matrix: row ``r``
    is vertex ``r`` and each dangling id a view holds gets one vertex
    after them — the vertex set ``export_graph`` would build.  Anything
    else is exported (if it is not a graph already) and walked.  Either
    way the edges come grouped by source vertex in vertex order, so the
    row pointer is the running sum of the outdegrees.
    """
    from scipy.sparse import csr_array

    state = getattr(source, "array_state", None)
    if state is not None:
        ids, node_at = state()
        n = ids.shape[0]
        held = ids >= 0
        outdeg = np.count_nonzero(held, axis=1)
        targets = ids[held]
        lookup = np.full(
            max(int(node_at.max(initial=-1)), int(targets.max(initial=-1))) + 1,
            -1,
            dtype=np.int32,
        )
        lookup[node_at] = np.arange(n)
        dangling = np.unique(targets[lookup.take(targets) < 0])
        lookup[dangling] = n + np.arange(dangling.size)
        num_nodes = n + dangling.size
        dst = lookup.take(targets)
    else:
        graph = source if isinstance(source, MembershipGraph) else source.export_graph()
        index = {node: k for k, node in enumerate(graph.nodes)}
        outdeg = [graph.outdegree(u) for u in graph.nodes]
        dst = np.array([index[v] for _, v in graph.edges()], dtype=np.int32)
        num_nodes = graph.num_nodes
    # Dangling vertices come last and have no out-edges.
    indptr = np.full(num_nodes + 1, dst.size, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(outdeg, out=indptr[1 : len(outdeg) + 1])
    # float64 multiplicities (exact below 2⁵³) and int32 vertex indices
    # are what csgraph works on, so it does not copy the matrix again.
    adjacency = csr_array(
        (np.ones(dst.size), dst, indptr), shape=(num_nodes, num_nodes)
    )
    adjacency.sum_duplicates()
    return adjacency


def graph_statistics(source, compute_diameter: bool = True) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for a snapshot.

    ``source`` is a :class:`MembershipGraph` or a population: an
    array-backed kernel's id matrix is read directly (no graph export),
    any other population is exported first.  Components and edge counts
    come from a sparse multiplicity matrix.  Diameter is computed on the undirected
    simple projection (communication is possible along an edge in either
    direction once ids are known), with networkx, and only when the graph
    is connected; pass ``compute_diameter=False`` to skip the O(V·E) cost
    on large snapshots.
    """
    from scipy.sparse.csgraph import connected_components

    adjacency = _adjacency(source)
    num_nodes = adjacency.shape[0]
    num_edges = round(adjacency.data.sum())
    if num_nodes:
        count, labels = connected_components(
            adjacency, directed=True, connection="weak"
        )
        largest = int(np.bincount(labels).max())
    else:
        count = largest = 0
    connected = count == 1
    diameter = None
    if compute_diameter and connected and num_nodes > 1:
        import networkx as nx

        simple = adjacency.tocoo()
        loops = simple.row == simple.col
        undirected = nx.Graph()
        undirected.add_nodes_from(range(num_nodes))
        undirected.add_edges_from(
            zip(simple.row[~loops].tolist(), simple.col[~loops].tolist())
        )
        diameter = nx.diameter(undirected)
    return GraphStatistics(
        num_nodes=num_nodes,
        num_edges=num_edges,
        weakly_connected=connected,
        num_weak_components=int(count),
        largest_component_fraction=largest / max(num_nodes, 1),
        undirected_diameter=diameter,
        self_edges=round(adjacency.diagonal().sum()),
        parallel_edges=num_edges - adjacency.nnz,
    )
