"""The degree-MC iteration vs its two oracles.

The vectorized path precomputes an index/coefficient template and
rebuilds the rate matrix by array scaling; these tests pin it to the
per-state loop builder at the required tolerance (the implementation is
in fact bit-identical, so the 1e-12 bound has lots of headroom) across
a grid of (s, dL, ℓ) configurations including the conserved-sum-degree
line of Lemma 6.2.

The stationary solve scatters the same template into a k-major band and
pins one state; its oracle is the sparse LU with a spliced ``Σπ = 1`` row
that ``DegreeMarkovChain._stationary`` was until PR 24 (``_stationary_lu``
below).  ``LoopChain`` is both oracles at once — the whole former
iteration — and ``tests/data/degree_mc_golden.json``, written by that
iteration at the parent commit, pins the fixed points themselves.  The
band goes straight to LAPACK; ``scipy.linalg.solve_banded`` on the same
band is its bit-for-bit oracle on this machine
(``_stationary_solve_banded``), so no LAPACK bits are pinned across hosts.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, identity, lil_matrix
from scipy.sparse.linalg import spsolve

from repro.core.params import SFParams
from repro.markov import degree_mc
from repro.markov.degree_mc import DegreeMarkovChain, _Environment

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "degree_mc_golden.json").read_text()
)

# (view_size, d_low, loss_rate, conserved_sum_degree)
CONFIGS = [
    (40, 18, 0.01, None),   # the paper's worked example
    (12, 2, 0.05, None),
    (16, 0, 0.1, None),
    (24, 10, 0.0, None),
    (20, 0, 0.0, 12),       # Lemma 6.2 conserved line (Figure 6.1)
]


def _bordered(matrix: csr_matrix) -> csr_matrix:
    """``Pᵀ − I`` with ``Σπ = 1`` as its last row."""
    n = matrix.shape[0]
    balance = (matrix.T - identity(n, format="csr")).tocsr()
    cut = balance.indptr[n - 1]
    indptr = np.concatenate([balance.indptr[:n], [cut + n]])
    indices = np.concatenate([balance.indices[:cut], np.arange(n)])
    data = np.concatenate([balance.data[:cut], np.ones(n)])
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _stationary_lu(matrix: csr_matrix) -> np.ndarray:
    """The oracle: sparse LU of the bordered system."""
    n = matrix.shape[0]
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = spsolve(_bordered(matrix), b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


class LoopChain(DegreeMarkovChain):
    """The oracle: the rate matrix from per-state loops over
    ``_transitions``, its stationary law from the sparse LU, the next
    environment from a loop over the states."""

    def _stationary(self, env: _Environment, pin: int) -> np.ndarray:
        return _stationary_lu(self._build_matrix(env))

    def _environment_from(self, pi: np.ndarray) -> _Environment:
        s, d_low = self.params.view_size, self.params.d_low
        mean_d = mean_dd1 = dup_mass = k_mass = k_full_mass = 0.0
        for prob, (d, k) in zip(pi, self.states):
            mean_d += prob * d
            mean_dd1 += prob * d * (d - 1)
            if d == d_low:
                dup_mass += prob * d * (d - 1)
            k_mass += prob * k
            if d == s:
                k_full_mass += prob * k
        if mean_d <= 0.0 or mean_dd1 <= 0.0:
            return _Environment(0.0, 0.0, 0.0)
        return _Environment(
            mean_dd1 / (mean_d * s * (s - 1)),
            dup_mass / mean_dd1,
            (k_full_mass / k_mass) if k_mass > 0.0 else 0.0,
        )

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


def _chain(s, d_low, loss, dm=None, chain_type=DegreeMarkovChain):
    return chain_type(
        SFParams(view_size=s, d_low=d_low), loss_rate=loss, conserved_sum_degree=dm
    )


def _chain_pair(s, d_low, loss, dm):
    """The same chain with the vectorized builder and with the oracle."""
    return _chain(s, d_low, loss, dm), _chain(s, d_low, loss, dm, LoopChain)


def _solve_both(s, d_low, loss, dm):
    vec, loop = _chain_pair(s, d_low, loss, dm)
    return vec.solve(cache=False), loop.solve(cache=False)


@st.composite
def _chain_env_pin(draw):
    """A chain, an environment in the open box and any state to pin.

    The box is what a distribution over the states can produce: ``r``
    between its values at D ≡ 2 and D ≡ s, probabilities off 0 and 1 (at
    ℓ = 0 the chain is reducible in the limit p_dup, p_full → 0, and 1e-3
    keeps the two solvers' own errors under the bound)."""
    if draw(st.booleans()):
        d_low = draw(st.sampled_from([0, 2, 4, 6, 18]))
        s = d_low + draw(st.sampled_from(range(6, 23, 2)))
        chain = _chain(s, d_low, draw(st.floats(0.0, 0.99)))
    else:
        dm = draw(st.sampled_from(range(6, 41, 2)))
        chain = _chain(dm, 0, 0.0, dm)
        s = dm
    env = _Environment(
        rate_per_instance=draw(st.floats(1.0 / (s * (s - 1)), 1.0 / s)),
        p_dup_holder=draw(st.floats(1e-3, 1.0 - 1e-3)),
        p_full=draw(st.floats(1e-3, 1.0 - 1e-3)),
    )
    return chain, env, draw(st.integers(0, len(chain.states) - 1))


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

    @settings(max_examples=60, deadline=None)
    @given(_chain_env_pin())
    def test_matrix_equals_loop_oracle(self, drawn):
        vec, env, _ = drawn
        loop = LoopChain(
            vec.params, loss_rate=vec.loss_rate,
            conserved_sum_degree=vec.conserved_sum_degree,
        )
        a, b = vec._build_matrix(env), loop._build_matrix(env)
        a.sort_indices()
        b.sort_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

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

    @pytest.mark.parametrize("s,d_low,loss,dm", CONFIGS)
    def test_marginals_are_state_order_sums(self, s, d_low, loss, dm):
        """``bincount`` adds in state order, as the dict loop did: equal bits."""
        solved = _chain(s, d_low, loss, dm).solve(cache=False)
        out_pmf, in_pmf = {}, {}
        for prob, (d, k) in zip(solved.stationary.tolist(), solved.states):
            out_pmf[d] = out_pmf.get(d, 0.0) + prob
            in_pmf[k] = in_pmf.get(k, 0.0) + prob
        assert solved.outdegree_pmf == dict(sorted(out_pmf.items()))
        assert solved.indegree_pmf == dict(sorted(in_pmf.items()))
        assert list(solved.outdegree_pmf) == sorted(out_pmf)
        assert all(type(p) is float for p in solved.outdegree_pmf.values())
        assert all(type(d) is int for d in solved.outdegree_pmf)

    def test_paper_row_values_unchanged(self):
        # The §6.4 in-text table anchor: ℓ=0.01 gives indegree ≈ 27±3.6.
        result = DegreeMarkovChain(
            SFParams(view_size=40, d_low=18), loss_rate=0.01
        ).solve(cache=False)
        mean, std = result.indegree_mean_std()
        assert mean == pytest.approx(27.0, abs=1.0)
        assert std == pytest.approx(3.6, abs=0.8)


def _band_solver_spy(monkeypatch, pins, spoil=None, info=None):
    """Wrap the LAPACK routine of every template built from now on.

    Each call records the band position it pins; ``spoil`` replaces the
    solution, ``info`` stands in for LAPACK's return code (the solve is
    then skipped)."""
    real = degree_mc._band_solver

    def factory(lower, upper):
        solve = real(lower, upper)

        def spy(ab, b):
            pins.append(int(np.flatnonzero(b)[0]))
            if info is not None:
                return b, info
            x, code = solve(ab, b)
            return (x if spoil is None else spoil(x)), code

        return spy

    monkeypatch.setattr(degree_mc, "_band_solver", factory)


def _stationary_solve_banded(chain, env, pin):
    """The banded stationary solve as ``scipy.linalg.solve_banded`` runs
    it: the band in that function's ``(lower + upper + 1, n)`` layout,
    built from the template's merged entries rather than its offsets,
    with the same pin, re-pin and checks as ``_stationary`` (an exact zero
    pivot raises ``LinAlgError``)."""
    from scipy.linalg import solve_banded

    template = chain._cached_template()
    n = len(chain.states)
    lower, upper = template.band
    position = template.position
    off_diag, diagonal = chain._transition_parts(env)
    for _ in range(2):
        band = np.zeros((lower + upper + 1, n))
        i, j = position[template.merged_cols], position[template.merged_rows]
        band[upper + i - j, j] = off_diag
        band[upper, position] = diagonal - 1.0
        p = int(position[pin])
        across = np.arange(max(p - lower, 0), min(p + upper, n - 1) + 1)
        band[upper + p - across, across] = 0.0
        band[upper, p] = 1.0
        rhs = np.zeros(n)
        rhs[p] = 1.0
        solved = solve_banded((lower, upper), band, rhs)
        total = solved.sum()
        if not np.isfinite(total) or total == 0.0:
            break
        pi = solved[position] / total
        inflow = np.bincount(
            template.merged_cols,
            weights=pi[template.merged_rows] * off_diag,
            minlength=n,
        )
        residual = np.abs(inflow + pi * (diagonal - 1.0)).max()
        mode = int(np.argmax(pi))
        if (
            pi.min() >= -1e-12
            and residual <= 1e-10
            and pi[pin] > np.finfo(float).eps * pi[mode]
        ):
            pi = np.clip(pi, 0.0, None)
            return pi / pi.sum()
        if mode == pin:
            break
        pin = mode
    raise RuntimeError("failed to solve for a stationary distribution")


class TestBandedStationary:
    """The k-major banded solve against the sparse-LU oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_chain_env_pin())
    # Off by 1.28e-11 from the oracle, residuals 7e-18 / 1.4e-17, cond 2e8.
    @example((_chain(22, 0, 0.0), _Environment(1 / 462, 1e-3, 1e-3), 0))
    def test_band_matches_lu_from_any_pin(self, drawn):
        chain, env, pin = drawn
        matrix = chain._build_matrix(env)
        oracle = _stationary_lu(matrix)
        try:
            banded = chain._stationary(env, pin)
        except RuntimeError:
            # Pinning a massless state can leave an exactly singular band
            # (seen on the one-dimensional lines), and the re-pin at the
            # largest inflow can fail too: loud is allowed there, wrong
            # is not.
            assert oracle[pin] < np.finfo(float).eps * oracle.max()
            return
        # Each solve is backward stable, so each lies within about
        # cond · eps of the exact π and so does their difference (constant
        # 1; 1500 draws peaked at 0.07).  The residual is what pins the band.
        assert np.abs(banded @ matrix - banded).max() <= 1e-12
        cond = np.linalg.cond(_bordered(matrix).toarray())
        assert np.abs(banded - oracle).max() <= cond * np.finfo(float).eps
        assert banded.min() >= 0.0
        assert banded.sum() == pytest.approx(1.0, abs=1e-12)

    def test_band_is_k_major_and_narrow(self):
        chain = _chain(40, 18, 0.05)
        chain.solve(cache=False)
        template = chain._template
        assert template.band == (12, 12)  # one row of d values, 18..40
        by_position = np.argsort(template.position)
        assert [chain.states[i][::-1] for i in by_position] == sorted(
            state[::-1] for state in chain.states
        )

    # s=40, dL=18, ℓ=0.5, the neutral first environment: (28, 29), the
    # middle of the grid, holds less than a rounding error of the mode's
    # mass — the solve pins it by round-off alone.
    BAD = dict(s=40, d_low=18, loss=0.5)
    BAD_ENV = _Environment(rate_per_instance=0.5 / 40, p_dup_holder=0.01, p_full=0.01)

    def test_massless_pin_is_moved_to_the_mode(self, monkeypatch):
        pins = []
        _band_solver_spy(monkeypatch, pins)
        chain = _chain(**self.BAD)
        oracle = _stationary_lu(chain._build_matrix(self.BAD_ENV))
        pin = chain._index[(28, 29)]
        assert oracle[pin] < np.finfo(float).eps * oracle.max()
        banded = chain._stationary(self.BAD_ENV, pin)
        assert np.abs(banded - oracle).max() <= 1e-12
        mode = chain._template.position[int(np.argmax(oracle))]
        assert pins == [chain._template.position[pin], mode]
        assert len(pins) == 2  # two LAPACK calls

    def test_massless_pin_raises_when_it_cannot_move(self, monkeypatch):
        chain = _chain(**self.BAD)
        pin = chain._index[(28, 29)]
        monkeypatch.setattr(DegreeMarkovChain, "_mode", staticmethod(lambda pi: pin))
        with pytest.raises(RuntimeError, match="stationary distribution"):
            chain._stationary(self.BAD_ENV, pin)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda x: np.full_like(x, np.nan),
            lambda x: np.where(np.arange(x.size) == 3, np.inf, x),
            lambda x: np.where(np.arange(x.size) == 3, -1e-6 * x.sum(), x),
            lambda x: np.ones_like(x),  # a distribution, not a stationary one
        ],
        ids=["nan", "inf", "negative", "residual"],
    )
    def test_bad_vector_raises_instead_of_being_clipped(self, monkeypatch, spoil):
        """Before PR 24 ``clip`` + renormalise made each of these a result."""
        _band_solver_spy(monkeypatch, [], spoil=spoil)
        chain = _chain(12, 2, 0.3)
        env = _Environment(rate_per_instance=0.04, p_dup_holder=0.3, p_full=0.01)
        with pytest.raises(RuntimeError, match="stationary distribution"):
            chain._stationary(env, 0)

    def test_singular_band_raises(self, monkeypatch):
        """An exact zero pivot (a massless pin on a one-dimensional line
        can produce one) at every pin is ``info > 0`` from LAPACK and
        ``RuntimeError`` here."""
        pins = []
        _band_solver_spy(monkeypatch, pins, info=1)
        with pytest.raises(RuntimeError, match="stationary distribution"):
            _chain(20, 0, 0.0, 12).solve(cache=False)
        assert len(pins) == 2  # the pin, then one re-pin

    def test_illegal_lapack_argument_raises(self, monkeypatch):
        _band_solver_spy(monkeypatch, [], info=-4)
        with pytest.raises(ValueError, match="illegal argument 4"):
            _chain(12, 2, 0.3).solve(cache=False)

    def test_singular_first_pin_still_solves(self):
        """s=40, dL=24, ℓ=1e-9: the first iteration pins the middle of the
        grid, (32, 12), which leaves the neutral environment's band exactly
        singular.  That used to raise; ℓ = 0 and ℓ = 1e-4 solved."""
        solved = _chain(40, 24, 1e-9).solve(cache=False)
        assert solved.iterations == 29
        lossless = _chain(40, 24, 0.0).solve(cache=False)
        assert np.abs(solved.stationary - lossless.stationary).max() <= 1e-9

    def test_singular_pin_is_moved_to_the_largest_inflow(self, monkeypatch):
        pins = []
        _band_solver_spy(monkeypatch, pins)
        chain = _chain(40, 24, 1e-9)
        env = _Environment(rate_per_instance=0.5 / 40, p_dup_holder=0.01, p_full=0.01)
        pin = len(chain.states) // 2
        assert chain.states[pin] == (32, 12)
        pi = chain._stationary(env, pin)
        off_diag, _ = chain._transition_parts(env)
        inflow = np.bincount(chain._template.merged_cols, weights=off_diag)
        assert chain.states[int(np.argmax(inflow))] == (38, 40)
        position = chain._template.position
        assert pins == [position[pin], position[chain._index[(38, 40)]]]
        assert np.abs(pi - _stationary_lu(chain._build_matrix(env))).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(_chain_env_pin())
    def test_lapack_seam_equals_solve_banded(self, drawn):
        """Same band, pin and environment: the same bits as
        ``scipy.linalg.solve_banded`` on this machine's LAPACK."""
        from scipy.linalg import LinAlgError

        chain, env, pin = drawn
        try:
            expected = _stationary_solve_banded(chain, env, pin)
        except (LinAlgError, RuntimeError):
            # solve_banded's path raises; the seam may re-pin past an
            # exact zero pivot, but it returns no unbalanced vector.
            try:
                pi = chain._stationary(env, pin)
            except RuntimeError:
                return
            assert np.abs(pi @ chain._build_matrix(env) - pi).max() <= 1e-10
            return
        assert np.array_equal(chain._stationary(env, pin), expected)


def _golden_id(row):
    line = row["conserved_sum_degree"]
    return (
        f"line-{line}" if line is not None
        else f"s{row['view_size']}-dL{row['d_low']}-l{row['loss_rate']}"
    )


class TestGoldenFixedPoints:
    """Fixed points written by the earlier sparse-LU stationary solve.
    The damped sequence from the neutral start *defines* the
    solution — at ℓ ≥ 0.9 the environment map has a second fixed point
    with ``p_dup_holder`` off by ``1 − ℓ`` — so the iteration counts are
    pinned with the values: an accelerator that lands elsewhere, or gets
    there by another route, fails here."""

    def test_written_by_these_solver_settings(self):
        assert GOLDEN["tolerance"] == degree_mc.TOLERANCE
        assert GOLDEN["damping"] == degree_mc.DAMPING

    @pytest.mark.parametrize("row", GOLDEN["rows"], ids=_golden_id)
    def test_fixed_point_unchanged(self, row):
        solved = _chain(
            row["view_size"], row["d_low"], row["loss_rate"],
            row["conserved_sum_degree"],
        ).solve(cache=False)
        # A last residual within 2× of TOLERANCE may fall on either side
        # of it when the iterates move in their last digits.
        slack = 1 if row["last_residual"] > degree_mc.TOLERANCE / 2 else 0
        assert abs(solved.iterations - row["iterations"]) <= slack
        assert solved.p_full == pytest.approx(row["p_full"], abs=1e-10)
        assert solved.p_dup_holder == pytest.approx(row["p_dup_holder"], abs=1e-10)
        assert solved.expected_outdegree() == pytest.approx(
            row["expected_outdegree"], abs=1e-10
        )


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
