"""The exact step link: ``SendForget``'s one action is ``ViewTuples.outcomes``.

The exact global chain (``markov/global_mc.py``) builds every row from
``ViewTuples.outcomes``; the simulator runs ``SendForget``, which the
kernels match bit for bit.  Here one action of ``SendForget`` is
enumerated over every choice it makes — the ordered slot pair
``initiate_at(u, i, j)``, the loss outcome, and the receiver's empty-slot
ranks for ``deliver_ranked`` — with each branch weighted as a rational.
The resulting successor distribution must be the exact chain's, key for
key, so exact chain ↔ object protocol ↔ kernels is one chain of equalities.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.markov.global_mc import GlobalMarkovChain
from repro.model.membership_graph import MembershipGraph
from repro.model.transformations import ViewTuples
from test_model_transformations import connected_graphs

LOSSES = (Fraction(0), Fraction(3, 10), Fraction(1))

#: Receiver empty-slot uniforms: they decide which empty slots the two ids
#: land in, never which ids the view holds.
RANKS = ((0.0, 0.0), (0.5, 0.25), (0.999, 0.999))


def _load(graph, params):
    """A fresh ``SendForget`` holding ``graph``'s views."""
    protocol = SendForget(params)
    for u in graph.nodes:
        protocol.add_node(u, list(graph.out_view(u).elements()))
    return protocol


def _pair_successors(graph, params, initiator, layout):
    """For each ordered slot pair: ``(lost key, [delivered key per rank
    vector])``, or ``(unchanged key, None)`` when the pair is a self-loop."""

    def key(protocol):
        return layout.canonical(
            tuple(tuple(protocol.view_of(u).items()) for u in layout.nodes)
        )

    pairs = []
    for i, j in permutations(range(params.view_size), 2):
        protocol = _load(graph, params)
        message = protocol.initiate_at(initiator, i, j)
        if message is None:
            pairs.append((key(protocol), None))
            continue
        lost = key(protocol)
        delivered = []
        for ranks in RANKS:
            if delivered:  # the first delivery reuses the lost branch's state
                protocol = _load(graph, params)
                message = protocol.initiate_at(initiator, i, j)
            protocol.deliver_ranked(message, ranks)
            delivered.append(key(protocol))
        pairs.append((lost, delivered))
    return pairs


def _assert_step_link(graph, params, initiator):
    layout = ViewTuples(graph.nodes)
    pairs = _pair_successors(graph, params, initiator, layout)
    for _, delivered in pairs:
        assert delivered is None or len(set(delivered)) == 1, delivered
    for loss in LOSSES:
        pair_mass = Fraction(1, len(pairs))
        masses = defaultdict(Fraction)
        for lost, delivered in pairs:
            if delivered is None:
                masses[lost] += pair_mass
                continue
            if loss > 0:
                masses[lost] += pair_mass * loss
            if loss < 1:
                masses[delivered[0]] += pair_mass * (1 - loss)
        # ``outcomes`` lists the self-loop apart from a merged successor
        # that is the same graph, so compare masses summed by key.
        expected = defaultdict(float)
        for prob, key, _ in layout.outcomes(
            layout.encode(graph),
            initiator,
            params.d_low,
            params.view_size,
            float(loss),
        ):
            expected[key] += prob
        assert set(masses) == set(expected), (initiator, loss)
        for key, mass in masses.items():
            assert abs(float(mass) - expected[key]) <= 1e-12, (initiator, loss, key)


def _lossless_lemma_7_5_states():
    """Every state of ``lemma-7.5``'s two lossless n = 3, s = 6 chains."""
    params = SFParams(view_size=6, d_low=0)
    starts = [
        MembershipGraph.from_edges([(0, 1), (0, 2)], nodes=[0, 1, 2]),
        MembershipGraph.from_edges([(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]),
    ]
    chains = [GlobalMarkovChain(params, 0.0, start) for start in starts]
    assert [chain.num_states for chain in chains] == [3, 41]
    return params, [graph for chain in chains for graph in chain.states]


PARAMS, LEMMA_7_5_STATES = _lossless_lemma_7_5_states()


class TestExactStepLink:
    @pytest.mark.parametrize("index", range(len(LEMMA_7_5_STATES)))
    def test_lemma_7_5_state(self, index):
        graph = LEMMA_7_5_STATES[index]
        for initiator in graph.nodes:
            _assert_step_link(graph, PARAMS, initiator)

    @given(
        case=connected_graphs(),
        d_low=st.sampled_from([0, 2]),
        pick=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_state(self, case, d_low, pick):
        graph, view_size = case
        assume(d_low <= view_size - 6)
        assume(all(graph.outdegree(u) >= d_low for u in graph.nodes))
        params = SFParams(view_size=view_size, d_low=d_low)
        _assert_step_link(graph, params, graph.nodes[pick % graph.num_nodes])
