"""Tests for repro.metrics.degrees."""

import dataclasses

import pytest

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.metrics.degrees import (
    DegreeSummary,
    degree_summary,
    id_instance_count,
    indegree_variance,
)

from conftest import build_system


def tiny_protocol():
    protocol = SendForget(SFParams(view_size=8, d_low=0))
    protocol.add_node(0, [1, 2])
    protocol.add_node(1, [2, 2])
    protocol.add_node(2, [0, 1])
    return protocol


class TestDegreeSummary:
    def test_means(self):
        summary = degree_summary(tiny_protocol())
        assert summary.outdegree_mean == pytest.approx(2.0)
        assert summary.indegree_mean == pytest.approx(2.0)

    def test_histograms(self):
        summary = degree_summary(tiny_protocol())
        assert summary.outdegree_histogram == {2: 3}
        # indegrees: 0<-1 (from 2), 1<-2 (0 and 2), 2<-3 (0, 1 twice)
        assert summary.indegree_histogram == {1: 1, 2: 1, 3: 1}

    def test_min_max(self):
        summary = degree_summary(tiny_protocol())
        assert summary.indegree_min == 1
        assert summary.indegree_max == 3

    def test_variance_helper(self):
        summary = degree_summary(tiny_protocol())
        assert summary.indegree_variance() == pytest.approx(summary.indegree_std**2)

    def test_empty_population_rejected(self):
        protocol = SendForget(SFParams(view_size=8))
        with pytest.raises(ValueError):
            degree_summary(protocol)


class TestIndegreeVariance:
    def test_matches_summary(self):
        protocol = tiny_protocol()
        assert indegree_variance(protocol) == pytest.approx(
            degree_summary(protocol).indegree_std ** 2
        )

    def test_balanced_is_zero(self):
        protocol = SendForget(SFParams(view_size=8, d_low=0))
        protocol.add_node(0, [1, 2])
        protocol.add_node(1, [2, 0])
        protocol.add_node(2, [0, 1])
        assert indegree_variance(protocol) == 0.0


class TestIdInstanceCount:
    def test_counts_multiplicity(self):
        protocol = tiny_protocol()
        assert id_instance_count(protocol, 2) == 3

    def test_departed_id_still_counted(self):
        protocol = tiny_protocol()
        protocol.remove_node(2)
        # Node 2's id persists in views of 0 and 1.
        assert id_instance_count(protocol, 2) == 3

    def test_decays_after_departure(self, small_params):
        protocol, engine = build_system(30, small_params, seed=3)
        engine.run_rounds(30)
        victim = 5
        before = id_instance_count(protocol, victim)
        protocol.remove_node(victim)
        engine.run_rounds(120)
        after = id_instance_count(protocol, victim)
        assert before > 0
        assert after < before


class TestArrayFastPath:
    """degree_summary / id_instance_count on an array-backed kernel must
    agree exactly with the generic per-node walk on an identical state."""

    def _matched_kernels(self):
        from repro.engine.sequential import EngineStats
        from repro.kernel import ArrayKernel, ReferenceKernel
        from repro.net.loss import UniformLoss
        from repro.util.rng import make_rng

        params = SFParams(view_size=10, d_low=4)
        arr, ref = ArrayKernel(params, capacity=40), ReferenceKernel(params)
        for kernel in (arr, ref):
            for u in range(40):
                kernel.add_node(u, [(u + k) % 40 for k in range(1, 7)])
        arr.run_batch(3000, make_rng(6), UniformLoss(0.1), EngineStats())
        ref.run_batch(3000, make_rng(6), UniformLoss(0.1), EngineStats())
        return arr, ref

    def test_degree_summary_matches_generic_path(self):
        arr, ref = self._matched_kernels()
        assert degree_summary(arr) == degree_summary(ref)

    def test_every_summary_field_equal_after_churn(self):
        arr, ref = self._matched_kernels()
        for victim in (3, 0, 39):
            arr.remove_node(victim)
            ref.remove_node(victim)
        fast, generic = degree_summary(arr), degree_summary(ref)
        for field in dataclasses.fields(DegreeSummary):
            assert getattr(fast, field.name) == getattr(generic, field.name), field.name
            assert type(getattr(fast, field.name)) is type(getattr(generic, field.name))
        for histogram in (fast.outdegree_histogram, fast.indegree_histogram):
            assert list(histogram) == sorted(histogram)
            assert all(type(k) is int and type(v) is int for k, v in histogram.items())
        assert indegree_variance(arr) == indegree_variance(ref)

    def test_id_instance_count_matches_generic_path(self):
        arr, ref = self._matched_kernels()
        arr.remove_node(7)
        ref.remove_node(7)
        for target in (0, 7, 39, 999):
            assert id_instance_count(arr, target) == id_instance_count(ref, target)
