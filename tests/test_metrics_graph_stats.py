"""Tests for repro.metrics.graph_stats."""

import dataclasses

import pytest

from repro.core.params import SFParams
from repro.engine.sequential import EngineStats
from repro.kernel import ArrayKernel, ReferenceKernel
from repro.metrics.graph_stats import GraphStatistics, graph_statistics
from repro.model.membership_graph import MembershipGraph
from repro.net.loss import UniformLoss
from repro.util.rng import make_rng

from conftest import build_system


class TestGraphStatistics:
    def test_connected_ring(self):
        graph = MembershipGraph.ring(10, hops=2)
        stats = graph_statistics(graph)
        assert stats.weakly_connected
        assert stats.num_weak_components == 1
        assert stats.largest_component_fraction == 1.0
        assert stats.undirected_diameter is not None

    def test_disconnected_components(self):
        graph = MembershipGraph.from_edges([(0, 1), (2, 3)])
        stats = graph_statistics(graph)
        assert not stats.weakly_connected
        assert stats.num_weak_components == 2
        assert stats.largest_component_fraction == 0.5
        assert stats.undirected_diameter is None

    def test_self_and_parallel_edges_counted(self):
        graph = MembershipGraph.from_edges([(0, 0), (0, 1), (0, 1)])
        stats = graph_statistics(graph)
        assert stats.self_edges == 1
        assert stats.parallel_edges == 1

    def test_diameter_skippable(self):
        graph = MembershipGraph.ring(10, hops=2)
        stats = graph_statistics(graph, compute_diameter=False)
        assert stats.undirected_diameter is None

    def test_ring_diameter_value(self):
        graph = MembershipGraph.ring(10, hops=1)
        stats = graph_statistics(graph)
        assert stats.undirected_diameter == 5

    def test_healthy_overlay_random_graph(self):
        graph = MembershipGraph.random_regular(60, 8, make_rng(0))
        stats = graph_statistics(graph)
        assert stats.is_healthy_overlay()

    def test_unhealthy_when_disconnected(self):
        graph = MembershipGraph.from_edges([(0, 1), (2, 3)])
        assert not graph_statistics(graph).is_healthy_overlay()

    def test_long_ring_not_healthy(self):
        graph = MembershipGraph.ring(200, hops=1)
        stats = graph_statistics(graph)
        # Diameter 100 ≫ 4·log2(200): a bad overlay despite connectivity.
        assert not stats.is_healthy_overlay()


class TestSteadyStateOverlay:
    def test_sandf_snapshot_is_healthy(self, small_params):
        protocol, engine = build_system(60, small_params, seed=12)
        engine.run_rounds(60)
        stats = graph_statistics(protocol.export_graph())
        assert stats.weakly_connected
        assert stats.is_healthy_overlay()


def networkx_statistics(graph, compute_diameter=True):
    """The all-networkx computation ``graph_statistics`` replaced; the
    reference its sparse edge-array path must equal field for field."""
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
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        weakly_connected=connected,
        num_weak_components=len(components),
        largest_component_fraction=largest / max(graph.num_nodes, 1),
        undirected_diameter=diameter,
        self_edges=sum(graph.self_edge_count(u) for u in graph.nodes),
        parallel_edges=sum(graph.duplicate_edge_count(u) for u in graph.nodes),
    )


RING = SFParams(view_size=10, d_low=4)
LOOSE = SFParams(view_size=6, d_low=0)


def churned(kernel):
    """A run ring with three departures: views hold dangling ids."""
    for u in range(40):
        kernel.add_node(u, [(u + k) % 40 for k in range(1, 7)])
    kernel.run_batch(3000, make_rng(5), UniformLoss(0.1), EngineStats())
    for u in (3, 17, 25):
        kernel.remove_node(u)


def two_rings(kernel):
    """Two rings that never learn of each other: two weak components."""
    for base in (0, 10):
        for u in range(6):
            kernel.add_node(base + u, [base + (u + k) % 6 for k in (1, 2, 3, 4)])
    kernel.run_batch(200, make_rng(6), UniformLoss(0.0), EngineStats())


def single(kernel):
    kernel.add_node(0, [0, 0])


def pair_with_dangling(kernel):
    kernel.add_node(0, [1, 1, 7, 7])
    kernel.add_node(1, [0, 0])


def empty(kernel):
    pass


STATES = [
    (churned, RING),
    (two_rings, RING),
    (single, LOOSE),
    (pair_with_dangling, LOOSE),
    (empty, LOOSE),
]


class TestMatchesNetworkx:
    @pytest.mark.parametrize(
        "build, params", STATES, ids=[build.__name__ for build, _ in STATES]
    )
    @pytest.mark.parametrize("kernel_class", [ArrayKernel, ReferenceKernel])
    def test_field_for_field(self, build, params, kernel_class):
        kernel = kernel_class(params)
        build(kernel)
        want = dataclasses.asdict(networkx_statistics(kernel.export_graph()))
        assert dataclasses.asdict(graph_statistics(kernel)) == want
        assert dataclasses.asdict(graph_statistics(kernel.export_graph())) == want

    def test_states_cover_the_edge_cases(self):
        """Each state exercises what it is named for."""
        kernel = ArrayKernel(RING)
        churned(kernel)
        graph = kernel.export_graph()
        assert graph.num_nodes > kernel.population  # dangling vertices
        kernel = ArrayKernel(RING)
        two_rings(kernel)
        assert graph_statistics(kernel).num_weak_components == 2
        kernel = ArrayKernel(LOOSE)
        single(kernel)
        stats = graph_statistics(kernel)
        assert (stats.num_nodes, stats.self_edges, stats.parallel_edges) == (1, 2, 1)

    @pytest.mark.parametrize("hops", [1, 2])
    def test_membership_graphs(self, hops):
        graph = MembershipGraph.ring(30, hops=hops)
        graph.add_edge(4, 4)
        graph.add_edge(7, 9)
        assert graph_statistics(graph) == networkx_statistics(graph)
