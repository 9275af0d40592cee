"""End-to-end integration tests: whole-system scenarios across modules."""

import numpy as np
import pytest

from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.engine.sequential import SequentialEngine
from repro.markov.degree_mc import DegreeMarkovChain
from repro.metrics.convergence import view_snapshot, view_overlap_fraction
from repro.metrics.degrees import degree_summary
from repro.metrics.graph_stats import graph_statistics
from repro.net.delay import ExponentialDelay
from repro.net.loss import GilbertElliottLoss, UniformLoss

from conftest import build_system


class TestSteadyStateAgreement:
    """The simulated protocol should agree with the degree MC's predictions."""

    def test_mean_degrees_match_markov_chain(self, paper_params):
        protocol, engine = build_system(
            300, paper_params, loss_rate=0.05, seed=200, init_outdegree=30
        )
        engine.run_rounds(500)
        solved = DegreeMarkovChain(paper_params, loss_rate=0.05).solve()
        summary = degree_summary(protocol)
        assert summary.outdegree_mean == pytest.approx(
            solved.expected_outdegree(), rel=0.08
        )
        assert summary.indegree_mean == pytest.approx(
            solved.expected_indegree(), rel=0.08
        )

    def test_joint_degree_law_matches_markov_chain(self):
        """The MC predicts the full joint (outdegree, indegree) law, not
        just its moments: tagged-node occupancy TVD stays small."""
        from collections import Counter

        from repro.util.stats import total_variation_distance

        params = SFParams(view_size=16, d_low=6)
        protocol, engine = build_system(
            300, params, loss_rate=0.05, seed=17, init_outdegree=10
        )
        engine.run_rounds(200)
        occupancy: Counter = Counter()
        samples = 0
        for _ in range(300):
            engine.run_rounds(2)
            indegrees = protocol.indegrees()
            for u in range(0, 300, 10):
                occupancy[(protocol.outdegree(u), indegrees[u])] += 1
                samples += 1
        empirical = {state: count / samples for state, count in occupancy.items()}
        solved = DegreeMarkovChain(params, loss_rate=0.05).solve()
        predicted = dict(zip(solved.states, solved.stationary))
        assert total_variation_distance(empirical, predicted) < 0.12

    def test_dup_del_balance_in_simulation(self, paper_params):
        protocol, engine = build_system(
            300, paper_params, loss_rate=0.05, seed=201, init_outdegree=30
        )
        engine.run_rounds(400)
        protocol.stats.reset()
        engine.run_rounds(200)
        dup = protocol.stats.duplication_probability()
        dele = protocol.stats.deletion_probability()
        assert dup == pytest.approx(0.05 + dele, abs=0.01)


class TestSelfEdgeBound:
    def test_beta_far_below_one_sixth(self, paper_params):
        """§7.4 bounds the self-edge probability β by 1/6; in practice the
        steady-state self-edge fraction is orders of magnitude smaller."""
        protocol, engine = build_system(
            300, paper_params, loss_rate=0.05, seed=212, init_outdegree=30
        )
        engine.run_rounds(300)
        self_edges = 0
        entries = 0
        for u in protocol.node_ids():
            view = protocol.view_of(u)
            entries += sum(view.values())
            self_edges += view.get(u, 0)
        beta = self_edges / entries
        assert beta < 1.0 / 6.0
        assert beta < 0.03  # typical values are ~1%


class TestChurnAndLossScenario:
    """Sustained churn + bursty loss + overlap: invariants and liveness."""

    def test_long_run_invariants(self, small_params):
        protocol, _ = build_system(60, small_params, seed=202)
        churn = ChurnProcess(protocol, join_rate=0.5, leave_rate=0.5, seed=203)
        loss = GilbertElliottLoss(p_good_to_bad=0.02, p_bad_to_good=0.2, bad_loss=0.5)
        engine = SequentialEngine(protocol, loss, seed=202)
        for _ in range(100):
            churn.apply_round()
            engine.run_rounds(1)
        protocol.check_invariant()
        assert len(protocol.node_ids()) > 8
        assert engine.stats.messages_lost > 0  # the bursty channel applies

    def test_overlay_stays_connected_under_mild_churn(self, small_params):
        protocol, engine = build_system(80, small_params, loss_rate=0.02, seed=204)
        churn = ChurnProcess(protocol, join_rate=0.3, leave_rate=0.3, seed=205)
        connected_checks = []
        for epoch in range(10):
            for _ in range(10):
                churn.apply_round()
                engine.run_rounds(1)
            live = set(protocol.node_ids())
            graph = protocol.export_graph()
            # Restrict connectivity to live nodes plus their dangling ids.
            stats = graph_statistics(graph, compute_diameter=False)
            connected_checks.append(stats.largest_component_fraction > 0.9)
        assert sum(connected_checks) >= 9

    def test_joiners_integrate_and_leavers_fade(self, small_params):
        protocol, engine = build_system(50, small_params, seed=206)
        engine.run_rounds(50)
        churn = ChurnProcess(
            protocol, join_rate=0, leave_rate=0, bootstrap_size=6, seed=207
        )
        joiner = churn.join_one()
        victim = 7
        protocol.remove_node(victim)
        engine.run_rounds(200)
        from repro.metrics.degrees import id_instance_count

        assert id_instance_count(protocol, joiner) > 0
        assert id_instance_count(protocol, victim) <= 2


class TestSerialVsAsynchronous:
    """The DES engine with overlap should reach the same steady state."""

    def test_degree_profiles_agree(self, small_params):
        serial_protocol, serial_engine = build_system(
            100, small_params, loss_rate=0.02, seed=208
        )
        serial_engine.run_rounds(150)

        async_protocol = SendForget(small_params)
        for u in range(100):
            async_protocol.add_node(u, [(u + k) % 100 for k in range(1, 7)])
        des = DiscreteEventEngine(
            async_protocol,
            loss=UniformLoss(0.02),
            delay=ExponentialDelay(2.0),
            seed=209,
        )
        des.run_until(150.0)

        serial = degree_summary(serial_protocol)
        overlapped = degree_summary(async_protocol)
        assert overlapped.outdegree_mean == pytest.approx(
            serial.outdegree_mean, rel=0.1
        )
        assert overlapped.indegree_std == pytest.approx(
            serial.indegree_std, rel=0.5
        )
        async_protocol.check_invariant()


class TestPeerSamplingService:
    """Use the views as a peer-sampling service for an application."""

    def test_samples_cover_population(self, small_params):
        protocol, engine = build_system(50, small_params, seed=210)
        engine.run_rounds(60)
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(80):
            engine.run_rounds(5)
            view = list(protocol.view_of(0).elements())
            if view:
                seen.add(view[int(rng.integers(len(view)))])
        # Node 0's evolving view eventually exposes a large population slice.
        # Consecutive draws are correlated (5 rounds apart), so coverage
        # trails the i.i.d. coupon-collector curve but keeps growing.
        assert len(seen) > 25

    def test_view_refreshes_over_time(self, small_params):
        protocol, engine = build_system(50, small_params, seed=211)
        engine.run_rounds(30)
        snapshot = view_snapshot(protocol)
        engine.run_rounds(200)
        assert view_overlap_fraction(protocol, snapshot) < 0.4
