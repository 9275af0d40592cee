"""Tests for repro.metrics.independence."""

import pytest

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.metrics.independence import (
    expected_iid_overlap,
    mutual_edge_fraction,
    neighbor_overlap_fraction,
)


class TestExpectedIidOverlap:
    def test_formula(self):
        assert expected_iid_overlap(10, 20, 400) == pytest.approx(0.5)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            expected_iid_overlap(5, 5, 0)


class TestMutualEdgeFraction:
    def test_fully_mutual(self):
        protocol = SendForget(SFParams(view_size=6, d_low=0))
        protocol.add_node(0, [1, 1])
        protocol.add_node(1, [0, 0])
        assert mutual_edge_fraction(protocol) == 1.0

    def test_no_mutual(self):
        protocol = SendForget(SFParams(view_size=6, d_low=0))
        protocol.add_node(0, [1, 1])
        protocol.add_node(1, [2, 2])
        protocol.add_node(2, [0, 0])
        assert mutual_edge_fraction(protocol) == 0.0

    def test_self_edges_excluded(self):
        protocol = SendForget(SFParams(view_size=6, d_low=0))
        protocol.add_node(0, [0, 1])
        protocol.add_node(1, [0, 0])
        # Edges counted: (0,1), (1,0)x2 — all mutual; the self-edge ignored.
        assert mutual_edge_fraction(protocol) == 1.0

    def test_empty_rejected(self):
        protocol = SendForget(SFParams(view_size=6, d_low=0))
        protocol.add_node(0, [])
        with pytest.raises(ValueError):
            mutual_edge_fraction(protocol)


class TestNeighborOverlap:
    def test_disjoint_views_score_zero(self):
        protocol = SendForget(SFParams(view_size=8, d_low=0))
        protocol.add_node(0, [1, 2])
        protocol.add_node(1, [3, 4])
        protocol.add_node(2, [5, 0])
        protocol.add_node(3, [5, 0])
        protocol.add_node(4, [5, 0])
        protocol.add_node(5, [4, 3])
        assert neighbor_overlap_fraction(protocol) == pytest.approx(0.0, abs=0.05)

    def test_identical_views_score_high(self):
        # Two neighbors sharing most of their view, inside a population
        # large enough that the i.i.d. baseline (a·b/n) stays small.
        protocol = SendForget(SFParams(view_size=8, d_low=0))
        shared = [2, 3, 4, 5]
        protocol.add_node(0, [1] + shared + [1])
        protocol.add_node(1, [0] + shared + [0])
        for v in shared:
            protocol.add_node(v, [0, 1])
        for spectator in range(6, 30):
            protocol.add_node(spectator, [0, 1])
        assert neighbor_overlap_fraction(protocol) > 0.3

    def test_single_node_rejected(self):
        protocol = SendForget(SFParams(view_size=6, d_low=0))
        protocol.add_node(0, [])
        with pytest.raises(ValueError):
            neighbor_overlap_fraction(protocol)


class TestArrayFastPath:
    def test_mutual_edge_fraction_matches_generic_path(self):
        from repro.engine.sequential import EngineStats
        from repro.kernel import ArrayKernel, ReferenceKernel
        from repro.net.loss import UniformLoss
        from repro.util.rng import make_rng

        params = SFParams(view_size=10, d_low=4)
        arr, ref = ArrayKernel(params, capacity=50), ReferenceKernel(params)
        for kernel in (arr, ref):
            for u in range(50):
                kernel.add_node(u, [(u + k) % 50 for k in range(1, 7)])
        arr.run_batch(4000, make_rng(8), UniformLoss(0.1), EngineStats())
        ref.run_batch(4000, make_rng(8), UniformLoss(0.1), EngineStats())
        # Departed ids in views exercise the liveness mask.
        arr.remove_node(3)
        ref.remove_node(3)
        assert mutual_edge_fraction(arr) == pytest.approx(
            mutual_edge_fraction(ref), abs=1e-12
        )

    def test_mutual_edge_fraction_pair_keys_do_not_wrap(self):
        """Pair keys ``dst * stride + src`` exceed 2³¹ here; the kernel's
        int32 ids must be widened before they are formed."""
        from repro.kernel import ArrayKernel

        kernel = ArrayKernel(SFParams(view_size=6, d_low=0))
        kernel.add_node(0, [60_000, 60_000])
        kernel.add_node(60_000, [0, 0])
        assert mutual_edge_fraction(kernel) == 1.0
