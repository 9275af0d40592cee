"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.decay import id_survival_bound
from repro.analysis.degree_analytic import analytical_outdegree_distribution
from repro.analysis.independence import (
    dependence_stationary_exact,
    independence_lower_bound,
)
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.core.view import View
from repro.model.membership_graph import MembershipGraph
from repro.model.transformations import enumerate_action_outcomes
from repro.util.rng import make_rng
from repro.util.stats import total_variation_distance

# ----------------------------------------------------------------------
# View: the free-list structure stays consistent under arbitrary op mixes
# ----------------------------------------------------------------------


@given(
    size=st.integers(min_value=1, max_value=16),
    ops=st.lists(st.integers(min_value=0, max_value=10**6), max_size=120),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_view_freelist_invariant_under_random_ops(size, ops, seed):
    view = View(size)
    rng = make_rng(seed)
    for op in ops:
        if op % 2 == 0 and not view.is_full:
            view.store_random_empty(op, False, rng)
        elif view.outdegree > 0:
            occupied = [i for i, e in enumerate(view) if e is not None]
            view.clear_slot(occupied[op % len(occupied)])
        view.validate()
        assert view.outdegree + view.empty_count == size


@given(
    ids=st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_view_ids_multiset_matches_insertions(ids):
    view = View(12)
    for index, node_id in enumerate(ids):
        view.store_into(index, node_id, False)
    assert view.ids() == Counter(ids)


# ----------------------------------------------------------------------
# Membership graph: degree bookkeeping is always consistent
# ----------------------------------------------------------------------


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=40
    )
)
@settings(max_examples=80, deadline=None)
def test_graph_degree_bookkeeping(edges):
    graph = MembershipGraph.from_edges(edges, nodes=range(8))
    graph.validate()
    assert graph.num_edges == len(edges)
    assert sum(graph.outdegree(u) for u in graph.nodes) == len(edges)
    assert sum(graph.indegree(u) for u in graph.nodes) == len(edges)
    # Sum degrees: Σ ds = Σd + 2Σdin = 3·|E|
    assert sum(graph.sum_degree(u) for u in graph.nodes) == 3 * len(edges)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20
    ),
)
@settings(max_examples=60, deadline=None)
def test_graph_canonical_state_stable_under_rebuild(edges):
    graph = MembershipGraph.from_edges(edges, nodes=range(6))
    rebuilt = MembershipGraph.from_edges(list(graph.edges()), nodes=range(6))
    assert graph == rebuilt
    assert hash(graph) == hash(rebuilt)


# ----------------------------------------------------------------------
# Transformations: outcome enumeration is a probability distribution and
# preserves the protocol's structural invariants
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    loss=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    d_low=st.sampled_from([0, 2]),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_is_distribution_and_preserves_parity(seed, loss, d_low):
    rng = make_rng(seed)
    graph = MembershipGraph.random_regular(6, 4, rng)
    view_size = 8
    outcomes = enumerate_action_outcomes(graph, 0, d_low, view_size, loss)
    assert math.isclose(sum(p for p, _ in outcomes), 1.0, rel_tol=1e-9)
    for prob, successor in outcomes:
        assert prob > 0
        for node in successor.nodes:
            d = successor.outdegree(node)
            assert d % 2 == 0
            assert d_low <= d <= view_size


# ----------------------------------------------------------------------
# S&F protocol: Observation 5.1 under arbitrary loss patterns
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    loss_pattern=st.lists(st.booleans(), min_size=50, max_size=300),
)
@settings(max_examples=25, deadline=None)
def test_sandf_invariant_under_adversarial_loss(seed, loss_pattern):
    """Observation 5.1 must hold for ANY loss pattern, not just i.i.d."""
    params = SFParams(view_size=10, d_low=2)
    protocol = SendForget(params)
    n = 8
    for u in range(n):
        protocol.add_node(u, [(u + 1) % n, (u + 2) % n, (u + 3) % n, (u + 4) % n])
    rng = make_rng(seed)
    for step, lose in enumerate(loss_pattern):
        for effect in protocol.initiate_effects(step % n, rng):
            if not lose:
                protocol.deliver_effects(effect.message, rng)
    protocol.check_invariant()


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_sandf_lossless_conserves_edges(seed):
    """With no loss, dL=0, and no full views, edge count is invariant."""
    params = SFParams(view_size=20, d_low=0)
    protocol = SendForget(params)
    n = 10
    for u in range(n):
        protocol.add_node(u, [(u + 1) % n, (u + 2) % n])
    rng = make_rng(seed)
    initial_edges = sum(protocol.outdegree(u) for u in range(n))
    for step in range(400):
        for effect in protocol.initiate_effects(step % n, rng):
            protocol.deliver_effects(effect.message, rng)
    # Views are far from full (≤ 6 ids vs s=20), so no deletions occur and
    # dL=0 means... dL=0 still allows duplication only at d=0, where no
    # action fires.  Hence edges are conserved exactly.
    assert sum(protocol.outdegree(u) for u in range(n)) == initial_edges
    assert protocol.stats.deletions == 0
    assert protocol.stats.duplications == 0


# ----------------------------------------------------------------------
# Analysis formulas: structural properties over their whole domain
# ----------------------------------------------------------------------


@given(dm=st.integers(min_value=2, max_value=120).filter(lambda x: x % 2 == 0))
@settings(max_examples=30, deadline=None)
def test_analytic_distribution_is_distribution(dm):
    pmf = analytical_outdegree_distribution(dm)
    assert math.isclose(sum(pmf.values()), 1.0, rel_tol=1e-9)
    assert all(p >= 0 for p in pmf.values())
    mean = sum(d * p for d, p in pmf.items())
    assert abs(mean - dm / 3) < max(1.0, 0.05 * dm)


@given(
    loss=st.floats(min_value=0.0, max_value=0.4),
    delta=st.floats(min_value=0.0, max_value=0.1),
)
@settings(max_examples=60, deadline=None)
def test_independence_bounds_ordering(loss, delta):
    exact = dependence_stationary_exact(loss, delta)
    simplified_alpha = independence_lower_bound(loss, delta)
    # The exact stationary dependence never exceeds the 2(l+δ) simplification.
    assert exact <= 2 * (loss + delta) + 1e-12
    assert 0.0 <= simplified_alpha <= 1.0


@given(
    rounds=st.integers(min_value=0, max_value=2000),
    loss=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_survival_bound_is_probability(rounds, loss):
    value = id_survival_bound(rounds, 18, 40, loss, min(0.1, 1.0 - loss))
    assert 0.0 <= value <= 1.0


@given(
    p=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10),
    q=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_tvd_metric_properties(p, q):
    size = min(len(p), len(q))
    p_arr = [x + 1e-9 for x in p[:size]]
    q_arr = [x + 1e-9 for x in q[:size]]
    p_norm = [x / sum(p_arr) for x in p_arr]
    q_norm = [x / sum(q_arr) for x in q_arr]
    d = total_variation_distance(p_norm, q_norm)
    assert 0.0 <= d <= 1.0 + 1e-9
    assert total_variation_distance(p_norm, p_norm) == 0.0
    assert d == total_variation_distance(q_norm, p_norm)
