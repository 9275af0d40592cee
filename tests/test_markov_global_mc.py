"""Tests for repro.markov.global_mc (sections 7.1-7.2 structural lemmas).

``tests/data/global_mc_golden.json`` pins five chains — ``lemma-7.5``'s
three, ``mixing-exact``'s ℓ=0.2 chain and the ℓ=0.5 hub of
``TestPartitionExclusion`` — by state count, labels and the bytes of
``P``.  It was written by the enumerator that copied a ``MembershipGraph``
per outcome (``PYTHONPATH=src python tests/test_markov_global_mc.py``
prints it) and is never regenerated to make a change pass.  ``P`` is a
sum of pure-Python floats in discovery order, so its bytes hold on any
host.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import SFParams
from repro.markov.global_mc import GlobalMarkovChain
from repro.model.membership_graph import MembershipGraph

GOLDEN = Path(__file__).parent / "data" / "global_mc_golden.json"


def hub_graph():
    return MembershipGraph.from_edges([(0, 1), (0, 2)], nodes=[0, 1, 2])


def triangle_graph():
    return MembershipGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    )


def pair_graph():
    return MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])


# name -> (view_size, d_low, loss_rate, initial graph, max_states)
GOLDEN_CHAINS = {
    "lemma-7.5-hub": (6, 0, 0.0, hub_graph, 200_000),
    "lemma-7.5-multiedge": (6, 0, 0.0, triangle_graph, 200_000),
    "lemma-7.5-lossy": (8, 2, 0.3, pair_graph, 50_000),
    "mixing-exact": (8, 2, 0.2, pair_graph, 200_000),
    "partition-hub": (6, 0, 0.5, hub_graph, 100_000),
}


def describe_chain(name):
    view_size, d_low, loss_rate, initial, max_states = GOLDEN_CHAINS[name]
    chain = GlobalMarkovChain(
        SFParams(view_size=view_size, d_low=d_low), loss_rate, initial(),
        max_states=max_states,
    )
    labels = repr(chain.to_markov_chain().labels).encode("utf-8")
    return {
        "num_states": chain.num_states,
        "labels_sha256": hashlib.sha256(labels).hexdigest(),
        "transition_sha256": hashlib.sha256(
            chain.transition_matrix().tobytes()
        ).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
def test_chain_matches_golden(name):
    assert describe_chain(name) == json.loads(GOLDEN.read_text())[name]


class TestOneSolvePerChain:
    """Each chain's bordered ``lstsq`` runs once, however many checks read π."""

    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        return calls

    def test_lemma_7_5_checks(self, lstsq_calls):
        from repro.experiments import lemma_7_5

        lemma_7_5.run_lossless_simple()
        lemma_7_5.run_lossless_multiedge()
        lemma_7_5.run_lossy(0.3)
        assert len(lstsq_calls) == 3

    def test_conductance_of_the_lossy_chain(self, lstsq_calls):
        from repro.markov.conductance import conductance

        chain = GlobalMarkovChain(SFParams(view_size=8, d_low=2), 0.2, pair_graph())
        markov = chain.to_markov_chain()
        assert chain.to_markov_chain() is markov
        conductance(markov)
        chain.uniformity_of_membership()
        assert len(lstsq_calls) == 1


class TestStates:
    def test_states_decode_to_their_labels(self):
        chain = GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, triangle_graph())
        labels = chain.to_markov_chain().labels
        assert [state.canonical_state() for state in chain.states] == labels

    def test_first_state_is_the_initial_graph(self):
        initial = triangle_graph()
        chain = GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, initial)
        first = chain.states[0]
        assert first == initial
        assert [list(first.out_edges(u)) for u in first.nodes] == [
            list(initial.out_edges(u)) for u in initial.nodes
        ]


class TestConstruction:
    def test_disconnected_initial_rejected(self):
        graph = MembershipGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        with pytest.raises(ValueError):
            GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, graph)

    def test_invalid_outdegree_rejected(self):
        graph = MembershipGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        # node 1 has outdegree 2 but node 0 and 2 have odd/uneven degrees? No:
        # d(0)=1 (odd) — violates Observation 5.1.
        with pytest.raises(ValueError):
            GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, graph)

    def test_state_cap_enforced(self):
        with pytest.raises(RuntimeError):
            GlobalMarkovChain(
                SFParams(view_size=8, d_low=2), 0.3, triangle_graph(), max_states=10
            )

    def test_rows_are_stochastic(self):
        chain = GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, hub_graph())
        matrix = chain.transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)


class TestLosslessHub:
    """The 3-state hub component: Lemmas 7.3-7.5 hold exactly."""

    @pytest.fixture(scope="class")
    def chain(self):
        return GlobalMarkovChain(SFParams(view_size=6, d_low=0), 0.0, hub_graph())

    def test_three_states(self, chain):
        assert chain.num_states == 3

    def test_lemma_6_2_sum_degrees_invariant(self, chain):
        vectors = chain.sum_degree_vectors()
        assert all(v == vectors[0] for v in vectors)

    def test_lemma_7_3_reversible(self, chain):
        assert chain.to_markov_chain().is_reversible()

    def test_lemma_7_4_doubly_stochastic(self, chain):
        assert chain.to_markov_chain().is_doubly_stochastic()

    def test_lemma_7_5_uniform_stationary(self, chain):
        assert chain.stationary_is_uniform()

    def test_lemma_7_6_membership_uniform(self, chain):
        probs = chain.uniformity_of_membership()
        values = list(probs.values())
        assert max(values) - min(values) < 1e-12


class TestLosslessMultiedge:
    """Parallel-edge states break exact per-state uniformity (documented
    caveat) but preserve membership uniformity by vertex symmetry."""

    @pytest.fixture(scope="class")
    def chain(self):
        return GlobalMarkovChain(
            SFParams(view_size=6, d_low=0), 0.0, triangle_graph()
        )

    def test_reachable_space_nontrivial(self, chain):
        assert chain.num_states > 10

    def test_sum_degrees_still_invariant(self, chain):
        vectors = chain.sum_degree_vectors()
        assert all(v == vectors[0] for v in vectors)

    def test_membership_uniformity_exact(self, chain):
        probs = chain.uniformity_of_membership()
        values = list(probs.values())
        assert max(values) - min(values) < 1e-10

    def test_stationary_not_uniform(self, chain):
        # The honest caveat: multiset aggregation skews per-state mass.
        assert not chain.stationary_is_uniform()


class TestLossy:
    """Lemmas 7.1/7.2 with 0 < loss < 1."""

    @pytest.fixture(scope="class")
    def chain(self):
        initial = MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])
        return GlobalMarkovChain(SFParams(view_size=8, d_low=2), 0.3, initial)

    def test_lemma_7_1_strongly_connected(self, chain):
        assert chain.is_strongly_connected()

    def test_lemma_7_2_unique_stationary(self, chain):
        markov = chain.to_markov_chain()
        assert markov.is_ergodic()
        pi = chain.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ markov.P, pi, atol=1e-8)

    def test_outdegrees_respect_invariant_everywhere(self, chain):
        for state in chain.states:
            for node in state.nodes:
                d = state.outdegree(node)
                assert d % 2 == 0
                assert 2 <= d <= 8

    def test_all_states_weakly_connected(self, chain):
        assert all(state.is_weakly_connected() for state in chain.states)


class TestPartitionExclusion:
    def test_partitioned_states_folded_to_self_loops(self):
        # With loss, an action by node 0 in the hub graph can strand it.
        chain = GlobalMarkovChain(
            SFParams(view_size=6, d_low=0), 0.5, hub_graph(), max_states=100_000
        )
        assert all(state.is_weakly_connected() for state in chain.states)
        matrix = chain.transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)


if __name__ == "__main__":
    print(json.dumps({name: describe_chain(name) for name in sorted(GOLDEN_CHAINS)}, indent=1))
