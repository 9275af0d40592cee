"""Tests for repro.markov.conductance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.chain import MarkovChain
from repro.markov.conductance import (
    boundary_size,
    conductance,
    conductance_of_set,
    expected_conductance,
    neighbor_sets,
)


def symmetric_chain(p=0.3):
    """Two-state symmetric chain: π = (1/2, 1/2), known conductance."""
    return MarkovChain(np.array([[1 - p, p], [p, 1 - p]]))


def ring_chain(n=6, p=0.5):
    """Random walk on an n-cycle with holding probability 1-p."""
    matrix = np.zeros((n, n))
    for x in range(n):
        matrix[x, x] = 1 - p
        matrix[x, (x + 1) % n] = p / 2
        matrix[x, (x - 1) % n] = p / 2
    return MarkovChain(matrix)


class TestBoundary:
    def test_two_state_boundary(self):
        chain = symmetric_chain(0.3)
        # |∂{0}| = π(0)·P(0,1) = 0.5·0.3
        assert boundary_size(chain, [0]) == pytest.approx(0.15)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            boundary_size(symmetric_chain(), [])

    def test_full_subset_rejected(self):
        with pytest.raises(ValueError):
            boundary_size(symmetric_chain(), [0, 1])

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValueError):
            boundary_size(symmetric_chain(), [7])


class TestConductanceOfSet:
    def test_two_state(self):
        chain = symmetric_chain(0.3)
        # φ({0}) = |∂{0}|/π({0}) = 0.15/0.5 = 0.3
        assert conductance_of_set(chain, [0]) == pytest.approx(0.3)

    def test_ring_half(self):
        chain = ring_chain(6, p=0.5)
        # Half the ring: boundary crossings only at the two ends.
        # |∂S| = 2 · (1/6)·(p/2); π(S) = 1/2 → φ = 4·(1/6)·(p/2)/1... compute:
        expected = (2 * (1 / 6) * 0.25) / 0.5
        assert conductance_of_set(chain, [0, 1, 2]) == pytest.approx(expected)


class TestGraphConductance:
    def test_two_state_equals_set_value(self):
        chain = symmetric_chain(0.3)
        assert conductance(chain) == pytest.approx(0.3)

    def test_ring_arc_candidates_find_bottleneck(self):
        chain = ring_chain(8, p=0.5)
        # The default sweep is only an upper bound; giving it contiguous
        # arcs as candidates recovers the true ring bottleneck.
        arcs = [list(range(length)) for length in range(1, 5)]
        arc_value = conductance_of_set(chain, [0, 1, 2, 3])
        assert conductance(chain, candidate_sets=arcs) == pytest.approx(arc_value)
        # The generic sweep never reports below a provided-candidates run.
        assert conductance(chain) >= arc_value - 1e-12

    def test_explicit_candidates(self):
        chain = ring_chain(6)
        value = conductance(chain, candidate_sets=[[0, 1, 2]])
        assert value == pytest.approx(conductance_of_set(chain, [0, 1, 2]))

    def test_no_valid_candidates_rejected(self):
        chain = symmetric_chain()
        with pytest.raises(ValueError):
            conductance(chain, candidate_sets=[[0, 1]])


class TestNeighborSets:
    def test_layers_grow_until_cover(self):
        chain = ring_chain(6, p=0.5)
        layers = neighbor_sets(chain, 0)
        sizes = [len(layer) for layer in layers]
        assert sizes[0] == 1
        assert sizes == sorted(sizes)
        assert sizes[-1] == 6

    def test_two_state_layers(self):
        layers = neighbor_sets(symmetric_chain(), 0)
        assert layers[0] == {0}
        assert layers[-1] == {0, 1}


class TestExpectedConductance:
    def test_exact_two_state(self):
        chain = symmetric_chain(0.3)
        # From either start, Γ_0 = {x} with π = 1/2 ≤ 1/2 → φ = 0.3.
        assert expected_conductance(chain) == pytest.approx(0.3)

    def test_sampled_close_to_exact(self):
        chain = ring_chain(6, p=0.5)
        exact = expected_conductance(chain)
        sampled = expected_conductance(chain, samples=200, seed=0)
        assert sampled == pytest.approx(exact, rel=0.2)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            expected_conductance(symmetric_chain(), samples=0)


def _random_ergodic_chain(n, density, seed):
    """Random sparse chain made ergodic by a ring (irreducible) and
    self-loops (aperiodic)."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((n, n)) * (rng.random((n, n)) < density)
    for x in range(n):
        matrix[x, x] += 0.1
        matrix[x, (x + 1) % n] += 0.1
    return MarkovChain(matrix / matrix.sum(axis=1, keepdims=True))


def _boundary_by_definition(chain, members):
    """Definition 7.11, literally: Σ_{x∈S} Σ_{y∉S} π(x)·P(x, y)."""
    pi = chain.stationary_distribution()
    return sum(
        pi[x] * chain.P[x, y]
        for x in members
        for y in range(chain.n)
        if y not in members
    )


def _expected_conductance_by_definition(chain):
    """Definition 7.13 with Python sets and the literal double sum."""
    pi = chain.stationary_distribution()
    total = 0.0
    for start in range(chain.n):
        layer, best = {start}, np.inf
        while len(layer) < chain.n and sum(pi[x] for x in layer) <= 0.5 + 1e-12:
            mass = sum(pi[x] for x in layer)
            best = min(best, _boundary_by_definition(chain, layer) / mass)
            grown = layer | {
                y for x in layer for y in range(chain.n) if chain.P[x, y] > 1e-12
            }
            if grown == layer:
                break
            layer = grown
        if np.isfinite(best):
            total += pi[start] * best
    return total


class TestAgainstDefinition:
    """The mask arithmetic equals the definitions' literal sums.

    The vectorised sums associate differently from the Python loops, so
    agreement is to float64 rounding over ≤ n² terms, not bit-exact.
    """

    chains = st.builds(
        _random_ergodic_chain,
        n=st.integers(2, 9),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )

    @given(chain=chains, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_boundary_size(self, chain, data):
        members = data.draw(
            st.sets(st.integers(0, chain.n - 1), min_size=1, max_size=chain.n - 1)
        )
        assert boundary_size(chain, members) == pytest.approx(
            _boundary_by_definition(chain, members), rel=1e-12, abs=1e-15
        )

    @given(chain=chains)
    @settings(max_examples=60, deadline=None)
    def test_neighbor_sets_and_expected_conductance(self, chain):
        for start in range(chain.n):
            layers = neighbor_sets(chain, start)
            assert layers[0] == {start}
            assert all(a < b for a, b in zip(layers, layers[1:]))
            assert layers[-1] == set(range(chain.n))  # irreducible
        assert expected_conductance(chain) == pytest.approx(
            _expected_conductance_by_definition(chain), rel=1e-12, abs=1e-15
        )
