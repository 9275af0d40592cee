"""Tests for repro.markov.mixing."""

import numpy as np
import pytest

from repro.core.params import SFParams
from repro.markov.chain import MarkovChain
from repro.markov.conductance import conductance
from repro.markov.global_mc import GlobalMarkovChain
from repro.markov.mixing import (
    _hit_times,
    epsilon_independence_time,
    mixing_time,
    relaxation_time,
    spectral_gap,
    tv_decay_curve,
)
from repro.model.membership_graph import MembershipGraph


def two_state(p=0.3, q=0.3):
    return MarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


def lazy_ring(n=8, move=0.5):
    matrix = np.zeros((n, n))
    for x in range(n):
        matrix[x, x] = 1 - move
        matrix[x, (x + 1) % n] = move / 2
        matrix[x, (x - 1) % n] = move / 2
    return MarkovChain(matrix)


def asymmetric_chain():
    """One hard-to-leave state: τε (average start) is strictly easier
    than worst-case mixing."""
    matrix = np.array(
        [
            [0.98, 0.02, 0.0],
            [0.30, 0.40, 0.30],
            [0.00, 0.30, 0.70],
        ]
    )
    return MarkovChain(matrix)


def random_chain(seed, n=30):
    matrix = np.random.default_rng(seed).random((n, n))
    return MarkovChain(matrix / matrix.sum(axis=1, keepdims=True))


EPSILONS = (0.3, 0.1, 0.05, 0.02, 0.01)


def assert_hits_follow_curves(chain, starts):
    """``_hit_times``'s doubling search lands, for every start in
    ``starts`` and every ε, on the first t where the one-product-per-step
    ``tv_decay_curve`` falls below ε."""
    hits = {epsilon: _hit_times(chain, epsilon, 100_000) for epsilon in EPSILONS}
    for x in starts:
        curve = tv_decay_curve(chain, x, max(hit[x] for hit in hits.values()))
        for epsilon, hit in hits.items():
            first = next(t for t, tv in enumerate(curve) if tv < epsilon)
            assert hit[x] == first, (x, epsilon)


def assert_max_steps_boundary(chain, epsilon):
    """``max_steps`` = T (the worst hit time) returns; T − 1 raises."""
    worst = int(_hit_times(chain, epsilon, 100_000).max())
    assert mixing_time(chain, epsilon, max_steps=worst) == worst
    assert epsilon_independence_time(chain, epsilon, max_steps=worst) <= worst + 1e-9
    for quantity in (mixing_time, epsilon_independence_time):
        with pytest.raises(RuntimeError):
            quantity(chain, epsilon, max_steps=worst - 1)


class TestSpectralGap:
    def test_two_state_gap(self):
        # Eigenvalues of the symmetric 2-state chain: 1 and 1-2p.
        chain = two_state(0.3, 0.3)
        assert spectral_gap(chain) == pytest.approx(0.6)

    def test_relaxation_time(self):
        chain = two_state(0.25, 0.25)
        assert relaxation_time(chain) == pytest.approx(2.0)

    def test_disconnected_has_no_gap(self):
        frozen = MarkovChain(np.eye(2))
        assert spectral_gap(frozen) == pytest.approx(0.0, abs=1e-9)
        assert relaxation_time(frozen) == float("inf")

    def test_cheeger_inequalities(self):
        """φ²/2 ≤ gap ≤ 2φ for a reversible chain."""
        chain = lazy_ring(8)
        gap = spectral_gap(chain)
        # conductance() over arc candidates finds the true bottleneck here.
        arcs = [list(range(k)) for k in range(1, 5)]
        phi = conductance(chain, candidate_sets=arcs)
        assert phi**2 / 2 <= gap + 1e-9
        assert gap <= 2 * phi + 1e-9


class TestMixingTimes:
    @pytest.mark.parametrize(
        "chain, epsilon",
        [(two_state(0.3, 0.3), 0.01), (lazy_ring(8), 0.05)],
        ids=["two-state", "lazy-ring"],
    )
    def test_mixing_time_definition(self, chain, epsilon):
        """Both chains are symmetric, so state 0 is a worst start and the
        mixing time is the first hit of ε on its decay curve."""
        t = mixing_time(chain, epsilon)
        assert t > 0
        curve = tv_decay_curve(chain, 0, t)
        assert curve[-1] < epsilon
        assert curve[-2] >= epsilon

    def test_tau_at_most_worst_case(self):
        chain = lazy_ring(8)
        tau = epsilon_independence_time(chain, 0.05)
        assert tau <= mixing_time(chain, 0.05) + 1e-9

    def test_asymmetric_chain_tau_below_mixing(self):
        chain = asymmetric_chain()
        assert epsilon_independence_time(chain, 0.02) < mixing_time(chain, 0.02)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            mixing_time(two_state(), 0.0)
        with pytest.raises(ValueError):
            epsilon_independence_time(two_state(), 1.0)

    def test_unmixable_raises(self):
        # π = (½, ½) is unique, but a point start alternates forever.
        flip = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(RuntimeError):
            mixing_time(flip, 0.01, max_steps=10)

    def test_non_unique_stationary_raises(self):
        """The identity chain has no *the* π to mix towards."""
        with pytest.raises(np.linalg.LinAlgError, match="not unique"):
            mixing_time(MarkovChain(np.eye(2)), 0.01, max_steps=10)

    @pytest.mark.parametrize(
        "chain",
        [two_state(), lazy_ring(8), asymmetric_chain()],
        ids=["two-state", "lazy-ring", "asymmetric"],
    )
    def test_hit_times_follow_curves(self, chain):
        assert_hits_follow_curves(chain, range(chain.n))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_chain_hit_times_follow_curves(self, seed):
        chain = random_chain(seed)
        assert_hits_follow_curves(chain, range(chain.n))

    @pytest.mark.parametrize(
        "chain, epsilon",
        [(two_state(), 0.01), (lazy_ring(8), 0.05), (asymmetric_chain(), 0.02)],
        ids=["two-state", "lazy-ring", "asymmetric"],
    )
    def test_max_steps_boundary(self, chain, epsilon):
        assert_max_steps_boundary(chain, epsilon)


class TestDecayCurves:
    @pytest.mark.parametrize(
        "move, steps, final", [(0.2, 30, 1e-3), (0.3, 50, 1e-6)]
    )
    def test_point_start_monotone_envelope(self, move, steps, final):
        chain = two_state(move, move)
        curve = tv_decay_curve(chain, 0, steps)
        assert curve[0] == pytest.approx(0.5)
        assert curve[-1] < final

    def test_average_start_below_point_start(self):
        chain = lazy_ring(8)
        average = tv_decay_curve(chain, None, 20)
        worst0 = tv_decay_curve(chain, 0, 20)
        # Averaging over π (uniform here) cannot exceed the single start.
        assert average[5] <= worst0[5] + 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            tv_decay_curve(two_state(), 0, -1)
        with pytest.raises(ValueError):
            tv_decay_curve(two_state(), 9, 5)

    def test_unreachable_epsilon_raises(self):
        """The identity chain has no unique π to decay towards."""
        with pytest.raises(np.linalg.LinAlgError, match="not unique"):
            tv_decay_curve(MarkovChain(np.eye(2)), 0, 5)


class TestOnGlobalChain:
    """Temporal independence on an exact S&F global chain."""

    @pytest.fixture(scope="class")
    def chain(self):
        initial = MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])
        global_chain = GlobalMarkovChain(
            SFParams(view_size=8, d_low=2), 0.2, initial
        )
        return global_chain.to_markov_chain()

    def test_global_chain_mixes(self, chain):
        tau = epsilon_independence_time(chain, 0.05, max_steps=50_000)
        assert tau < 50_000

    def test_tau_no_worse_than_mixing(self, chain):
        tau = epsilon_independence_time(chain, 0.1, max_steps=50_000)
        worst = mixing_time(chain, 0.1, max_steps=50_000)
        assert tau <= worst

    def test_hit_times_follow_curves(self, chain):
        """Every start, one product per step, would be ≈ 500 k single-row
        steps (seconds); the worst start, the most and the least likely
        start cover the max and both ends of π · hit."""
        pi = chain.stationary_distribution()
        worst = _hit_times(chain, EPSILONS[-1], 100_000).argmax()
        assert_hits_follow_curves(chain, {worst, pi.argmax(), pi.argmin()})

    def test_max_steps_boundary(self, chain):
        assert_max_steps_boundary(chain, 0.1)

    def test_positive_spectral_gap(self, chain):
        assert spectral_gap(chain) > 0.0
