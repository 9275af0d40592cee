"""Tests for repro.markov.chain."""

import numpy as np
import pytest

from repro.markov.chain import MarkovChain


def two_state(p=0.3, q=0.6):
    return MarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.5]]))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            MarkovChain(np.eye(2), labels=["only one"])


class TestStructure:
    def test_irreducible_two_state(self):
        assert two_state().is_irreducible()

    def test_reducible_detected(self):
        chain = MarkovChain(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert not chain.is_irreducible()

    def test_self_loop_implies_aperiodic(self):
        assert two_state().is_aperiodic()

    def test_periodic_cycle_detected(self):
        cycle = MarkovChain(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        assert not cycle.is_aperiodic()
        assert cycle.is_irreducible()

    def test_ergodic(self):
        assert two_state().is_ergodic()

    def test_doubly_stochastic(self):
        symmetric = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert symmetric.is_doubly_stochastic()
        assert not two_state(0.3, 0.6).is_doubly_stochastic()

    def test_reversible_two_state(self):
        # Every irreducible two-state chain is reversible.
        assert two_state().is_reversible()

    def test_nonreversible_three_cycle(self):
        biased = MarkovChain(
            np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
        )
        assert not biased.is_reversible()


class TestStationary:
    def test_two_state_closed_form(self):
        chain = two_state(p=0.3, q=0.6)
        pi = chain.stationary_distribution()
        assert pi[0] == pytest.approx(0.6 / 0.9)
        assert pi[1] == pytest.approx(0.3 / 0.9)

    def test_doubly_stochastic_uniform(self):
        chain = MarkovChain(np.array([[0.2, 0.8], [0.8, 0.2]]))
        pi = chain.stationary_distribution()
        assert np.allclose(pi, 0.5)

    def test_invariance(self):
        chain = two_state(0.25, 0.4)
        pi = chain.stationary_distribution()
        assert np.allclose(pi @ chain.P, pi)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
             [0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 0.8, 0.2]],
        ],
        ids=["identity", "two-closed-classes"],
    )
    def test_non_unique_raises(self, matrix):
        """Two closed classes: every mix of their π's is stationary.  The
        bordered system is rank-deficient, and the solve used to return
        one of them ([0.5, 0.5] for the identity)."""
        chain = MarkovChain(np.array(matrix))
        with pytest.raises(np.linalg.LinAlgError, match="not unique"):
            chain.stationary_distribution()

    def test_solved_once_and_copied(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        chain = two_state(0.3, 0.6)
        first = chain.stationary_distribution()
        first[:] = -1.0  # the caller's copy, not the chain's
        second = chain.stationary_distribution()
        assert second[0] == pytest.approx(0.6 / 0.9)
        assert second is not chain.stationary_distribution()
        assert len(calls) == 1

    def test_failed_solve_is_not_cached(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        chain = MarkovChain(np.eye(2))
        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError):
                chain.stationary_distribution()
        assert len(calls) == 2


class TestReadOnlyTransition:
    def test_P_cannot_be_written(self):
        chain = two_state()
        with pytest.raises(ValueError):
            chain.P[0, 0] = 0.5

    def test_caller_array_stays_writable(self):
        matrix = np.array([[0.7, 0.3], [0.6, 0.4]])
        chain = MarkovChain(matrix)
        matrix[0] = [0.0, 1.0]
        assert matrix.flags.writeable
        assert chain.P[0, 0] == 0.7


class TestEvolution:
    def test_evolve_zero_steps_identity(self):
        chain = two_state()
        p0 = np.array([1.0, 0.0])
        assert np.allclose(chain.evolve(p0, 0), p0)

    def test_evolve_matches_matrix_power(self):
        chain = two_state()
        p0 = np.array([1.0, 0.0])
        manual = p0 @ np.linalg.matrix_power(chain.P, 5)
        assert np.allclose(chain.evolve(p0, 5), manual)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            two_state().evolve([1.0], 1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            two_state().evolve([1.0, 0.0], -1)


class TestSampling:
    def test_path_length(self):
        path = two_state().sample_path(0, 10, seed=0)
        assert len(path) == 11
        assert path[0] == 0

    def test_path_states_valid(self):
        path = two_state().sample_path(1, 100, seed=1)
        assert set(path) <= {0, 1}

    def test_invalid_start_rejected(self):
        with pytest.raises(ValueError):
            two_state().sample_path(5, 3)

    def test_occupancy_matches_stationary(self):
        chain = two_state(0.3, 0.6)
        path = chain.sample_path(0, 20000, seed=2)
        occupancy = sum(path) / len(path)
        assert occupancy == pytest.approx(1 / 3, abs=0.02)
