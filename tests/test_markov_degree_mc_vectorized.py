"""Vectorized degree-MC matrix builder vs the scalar reference builder.

The vectorized path precomputes an index/coefficient template and
rebuilds the rate matrix by array scaling; these tests pin it to the
per-state loop builder at the required tolerance (the implementation is
in fact bit-identical, so the 1e-12 bound has lots of headroom) across
a grid of (s, dL, ℓ) configurations including the conserved-sum-degree
line of Lemma 6.2.
"""

import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix, lil_matrix

from repro.core.params import SFParams
from repro.markov.degree_mc import DegreeMarkovChain, _Environment

# (view_size, d_low, loss_rate, conserved_sum_degree)
CONFIGS = [
    (40, 18, 0.01, None),   # the paper's worked example
    (12, 2, 0.05, None),
    (16, 0, 0.1, None),
    (24, 10, 0.0, None),
    (20, 0, 0.0, 12),       # Lemma 6.2 conserved line (Figure 6.1)
]


class LoopChain(DegreeMarkovChain):
    """The oracle: the rate matrix from per-state loops over ``_transitions``."""

    def _build_matrix(self, env: _Environment) -> csr_matrix:
        n = len(self.states)
        rates = lil_matrix((n, n))
        outflow = np.zeros(n)
        for i, state in enumerate(self.states):
            for target, rate in self._transitions(state, env):
                j = self._index[target]
                if j == i:
                    continue
                rates[i, j] += rate
                outflow[i] += rate
        lam = float(outflow.max())
        if lam <= 0.0:
            raise RuntimeError("degenerate chain: no transitions anywhere")
        transition = (rates.tocsr() / lam).tolil()
        for i in range(n):
            transition[i, i] = 1.0 - outflow[i] / lam
        return transition.tocsr()


def _chain_pair(s, d_low, loss, dm):
    """The same chain with the vectorized builder and with the oracle."""
    return tuple(
        chain_type(
            SFParams(view_size=s, d_low=d_low),
            loss_rate=loss,
            conserved_sum_degree=dm,
        )
        for chain_type in (DegreeMarkovChain, LoopChain)
    )


def _solve_both(s, d_low, loss, dm):
    vec, loop = _chain_pair(s, d_low, loss, dm)
    return vec.solve(cache=False), loop.solve(cache=False)


class TestMatrixEquivalence:
    @pytest.mark.parametrize("s,d_low,loss,dm", CONFIGS)
    def test_matrices_identical(self, s, d_low, loss, dm):
        vec, loop = _chain_pair(s, d_low, loss, dm)
        # Probe both a generic and a degenerate environment.
        for env in (
            _Environment(rate_per_instance=0.5 / s, p_dup_holder=0.01, p_full=0.01),
            _Environment(rate_per_instance=0.02, p_dup_holder=0.0, p_full=0.0),
            _Environment(rate_per_instance=0.03, p_dup_holder=0.3, p_full=0.2),
        ):
            a = vec._build_matrix(env).tocsr()
            b = loop._build_matrix(env).tocsr()
            a.sort_indices()
            b.sort_indices()
            assert a.shape == b.shape
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)  # bit-identical

    def test_template_reused_across_iterations(self):
        chain = DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.05)
        assert chain._template is None
        chain.solve(cache=False)
        template = chain._template
        assert template is not None
        chain.solve(cache=False)
        assert chain._template is template  # built once, not per solve


class TestSolveEquivalence:
    @pytest.mark.parametrize("s,d_low,loss,dm", CONFIGS)
    def test_solutions_match(self, s, d_low, loss, dm):
        vec, loop = _solve_both(s, d_low, loss, dm)
        assert vec.states == loop.states
        np.testing.assert_allclose(
            vec.stationary, loop.stationary, rtol=0.0, atol=1e-12
        )
        assert abs(vec.p_full - loop.p_full) <= 1e-12
        assert abs(vec.p_dup_holder - loop.p_dup_holder) <= 1e-12
        assert abs(vec.duplication_probability - loop.duplication_probability) <= 1e-12
        assert vec.iterations == loop.iterations
        assert vec.converged and loop.converged

    def test_paper_row_values_unchanged(self):
        # The §6.4 in-text table anchor: ℓ=0.01 gives indegree ≈ 27±3.6.
        result = DegreeMarkovChain(
            SFParams(view_size=40, d_low=18), loss_rate=0.01
        ).solve(cache=False)
        mean, std = result.indegree_mean_std()
        assert mean == pytest.approx(27.0, abs=1.0)
        assert std == pytest.approx(3.6, abs=0.8)


class TestMatrixMethodOption:
    def test_default_is_vectorized(self):
        chain = DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.05)
        env = _Environment(rate_per_instance=0.04, p_dup_holder=0.01, p_full=0.01)
        chain._build_matrix(env)
        assert chain._template is not None  # the template builder ran

    def test_invalid_method_rejected(self):
        # The option is gone: the vectorized builder is the only one.
        with pytest.raises(TypeError, match="matrix_method"):
            DegreeMarkovChain(
                SFParams(view_size=12, d_low=2), 0.05, matrix_method="loop"
            )


class TestConvergenceFlag:
    def test_converged_true_on_normal_solve(self):
        result = DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.05).solve(
            cache=False
        )
        assert result.converged is True

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr("repro.markov.degree_mc.MAX_ITERATIONS", 1)
        chain = DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.05)
        with pytest.raises(RuntimeError, match="did not converge within 1 "):
            chain.solve(cache=False)

    @pytest.mark.parametrize("s", [6, 8, 90])
    def test_reducible_corner_raises(self, s):
        """ℓ = 0, dL = 0 off the conserved line (Lemma 6.2): the parent
        returned its 200th iterate — dE 1.07, 0.92, NaN — with a warning."""
        chain = DegreeMarkovChain(SFParams(view_size=s, d_low=0), 0.0)
        with pytest.raises(ValueError, match="conserved_sum_degree"):
            chain.solve(cache=False)

    def test_normal_solve_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.05).solve(
                cache=False
            )
