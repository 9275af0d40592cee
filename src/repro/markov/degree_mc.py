"""The two-dimensional degree Markov chain (section 6.2, Figures 6.1–6.3).

The chain tracks the joint evolution of a single tagged node's
``(outdegree d, indegree k)`` under S&F in a large system (``n ≫ s`` — the
construction is independent of ``n``).  Three event families change the
tagged state, with per-round rates (one round = each node initiates once):

* **initiate** (rate 1): the tagged node selects two slots; with
  probability ``q = d(d−1)/(s(s−1))`` both are nonempty.  Unless its
  outdegree sits at ``dL`` (duplication) it drops to ``d−2``; if the
  message is delivered (prob ``1−ℓ``) to a non-full receiver (prob
  ``1−P_full``), the receiver stores the tagged id: ``k+1``.
* **targeted** (rate ``k·r``): a holder of the tagged id picks that
  instance as the message *target*.  The holder clears the instance
  (``k−1``) unless it duplicates (prob ``p_dup``); the tagged node, if the
  message arrives (``1−ℓ``) and it has room (``d < s``), stores two ids:
  ``d+2`` — otherwise it deletes them.
* **forwarded** (rate ``k·r``): a holder picks the instance as the
  *payload*.  The instance moves: removed at the holder unless duplicated,
  recreated at the message target if delivered to a non-full node.

The environment parameters are distributional quantities of the chain's
own stationary distribution π, creating the circularity the paper resolves
iteratively ("we search the correct degree distributions iteratively"):

* ``r = E[D(D−1)] / (E[D]·s(s−1))`` — holders are sampled proportionally
  to outdegree (an id instance lives in a uniformly random nonempty slot),
  and target/payload selection is proportional to ``D−1``;
* ``p_dup = μ(dL)·dL·(dL−1) / E[D(D−1)]`` — the holder-duplication
  probability, size-biased exactly as Lemma 6.9 warns ("preferring nodes
  with higher outdegrees");
* ``P_full = E[k·1{d=s}] / E[k]`` — message targets are sampled
  proportionally to indegree, so receiver fullness is indegree-weighted.

Sum degrees are capped at ``3s`` exactly as in the paper ("we consider sum
degrees to be bounded by 3s ... replacing edges leading to these states
with self-loops").

With ``ℓ = 0`` and ``dL = 0`` the chain conserves the sum degree
``d + 2k`` (Lemma 6.2) and is not ergodic on the full grid; pass
``conserved_sum_degree=dm`` to restrict the state space to that line —
this reproduces the "S&F Markov" curves of Figure 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import SFParams
from repro.markov.solve_cache import DEFAULT_CACHE

if TYPE_CHECKING:
    # scipy.sparse is imported where it is called: `repro list` imports
    # this module and must not pay for it (tests/test_import_budget.py).
    from scipy.sparse import csr_matrix

State = Tuple[int, int]  # (outdegree, indegree)

#: Fixed-point solver settings.  Read at call time (tests monkeypatch them)
#: and part of every solve key, so a changed value never false-hits.
MAX_ITERATIONS = 200
TOLERANCE = 1e-10
DAMPING = 0.5

# Transition kinds: every rate in ``_transitions`` is ``base × factor``
# where ``base`` depends only on the source state (q for initiates, k for
# holder events) and ``factor`` is one fixed polynomial in the environment
# triple (r, p_dup, p_full).  The vectorized matrix build precomputes
# (row, col, base, kind) once and re-evaluates only the kinds' factors per
# fixed-point iteration — applying each factor with exactly the operation
# order of the scalar code so both builds are bit-identical.  A kind is
# also the slot of its move among a state's eight in ``_transitions``.
_INIT_DELIVER = 0       # q · deliver_space
_INIT_FAIL = 1          # q · (1 − deliver_space)
_TARGET_DELIVER = 2     # k·r · (1 − p_dup) · arrive
_TARGET_LOST = 3        # k·r · (1 − p_dup) · (1 − arrive)
_TARGET_DUP = 4         # k·r · p_dup · arrive
_TARGET_FULL_CLEAR = 5  # k·r · (1 − p_dup)
_FORWARD_CLEAR = 6      # k·r · (1 − p_dup) · (1 − deliver_space)
_FORWARD_DUP = 7        # k·r · p_dup · deliver_space

_BandSolve = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, int]]


def _band_solver(lower: int, upper: int) -> _BandSolve:
    """LAPACK's solver for a band of ``lower`` / ``upper`` diagonals.

    The returned ``solve(ab, b)`` overwrites both arguments and returns
    ``(x, info)``, LAPACK's ``info`` being > 0 for an exact zero pivot and
    < 0 for an illegal argument.  ``ab`` holds ``A`` in ``gbsv``'s layout:
    a Fortran-ordered ``(2·lower + upper + 1, n)`` array with
    ``A[i, j]`` at ``ab[lower + upper + i − j, j]`` and its first
    ``lower`` rows zero (the factorisation's fill-in).  The routine is the
    one ``scipy.linalg.solve_banded`` picks for that band — ``gtsv`` for a
    tridiagonal one (a Lemma 6.2 line), ``gbsv`` otherwise — so ``x`` is
    that function's result bit for bit, without its per-call checks and
    its copy of the band.
    """
    from scipy.linalg import get_lapack_funcs

    if lower == upper == 1:
        (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)

        def solve(ab: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, int]:
            *_, x, info = gtsv(ab[3, :-1], ab[2], ab[1, 1:], b, 1, 1, 1, 1)
            return x, info

        return solve
    (gbsv,) = get_lapack_funcs(("gbsv",), dtype=np.float64)

    def solve(ab: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, int]:
        _, _, x, info = gbsv(lower, upper, ab, b, overwrite_ab=1, overwrite_b=1)
        return x, info

    return solve


@dataclass
class _TransitionTemplate:
    """Environment-independent structure of the rate matrix.

    ``rows/base/kind`` hold one entry per potential transition, in the
    exact order the scalar builder generates them (so ordered
    accumulations reproduce its floating-point sums bit for bit).
    ``order/group_starts/merged_rows/merged_cols`` pre-merge duplicate
    ``(row, col)`` pairs via a stable sort, preserving first-generated
    order inside each group.

    The rest lays the balance system ``Pᵀ − I`` out for LAPACK's banded
    solve.  A transition moves ``k`` by at most one, so with the states
    sorted by ``(k, d)`` every entry sits within about one row of d values
    of the diagonal (12 at s=40, dL=18, against 52 in the d-major order of
    ``states``).  ``position`` maps a state index to its k-major position,
    ``band`` is the ``(lower, upper)`` bandwidth, ``band_rows`` the rows
    of ``gbsv``'s band array (see :func:`_band_solver`), and ``band_off``
    / ``band_diag`` are the flat Fortran-order indices into that array of
    each merged off-diagonal entry and of each state's diagonal;
    ``solve_band`` is the LAPACK routine, looked up once.  ``degrees`` is
    the states as a ``(2, n)`` array (row 0 the outdegrees, row 1 the
    indegrees) and ``moments`` holds, one row each, ``d``, ``d(d−1)``,
    ``d(d−1)·1{d=dL}``, ``k`` and ``k·1{d=s}``, so the environment of a
    distribution π is ``moments @ π``.
    """

    rows: np.ndarray
    base: np.ndarray
    kind: np.ndarray
    order: np.ndarray
    group_starts: np.ndarray
    merged_rows: np.ndarray
    merged_cols: np.ndarray
    position: np.ndarray
    band: Tuple[int, int]
    band_rows: int
    band_off: np.ndarray
    band_diag: np.ndarray
    solve_band: _BandSolve
    degrees: np.ndarray
    moments: np.ndarray


@dataclass
class DegreeMCResult:
    """Solved stationary behavior of the degree MC.

    Attributes:
        states: state list aligned with ``stationary``.
        stationary: π over states.
        outdegree_pmf / indegree_pmf: stationary marginals.
        p_full: indegree-weighted receiver-fullness probability.
        p_dup_holder: size-biased holder duplication probability.
        duplication_probability: Pr(duplication | non-self-loop action) of
            a random initiator — the δ-side quantity of Lemmas 6.6/6.7.
        deletion_probability: Pr(deletion | non-self-loop action), i.e.
            ``(1−ℓ)·P_full``.
        iterations: fixed-point iterations used.
        converged: whether the environment fixed point met the tolerance
            (``solve`` raises when it did not, so always true on a result
            it returned).
    """

    states: List[State]
    stationary: np.ndarray
    outdegree_pmf: Dict[int, float]
    indegree_pmf: Dict[int, float]
    p_full: float
    p_dup_holder: float
    duplication_probability: float
    deletion_probability: float
    iterations: int
    converged: bool = True

    def expected_outdegree(self) -> float:
        return sum(d * p for d, p in self.outdegree_pmf.items())

    def expected_indegree(self) -> float:
        return sum(k * p for k, p in self.indegree_pmf.items())

    def outdegree_mean_std(self) -> Tuple[float, float]:
        from repro.util.stats import distribution_mean_std

        return distribution_mean_std(self.outdegree_pmf)

    def indegree_mean_std(self) -> Tuple[float, float]:
        from repro.util.stats import distribution_mean_std

        return distribution_mean_std(self.indegree_pmf)


@dataclass
class _Environment:
    """The self-consistent field: rates the chain imposes on itself."""

    rate_per_instance: float
    p_dup_holder: float
    p_full: float

    def distance(self, other: "_Environment") -> float:
        return max(
            abs(self.rate_per_instance - other.rate_per_instance),
            abs(self.p_dup_holder - other.p_dup_holder),
            abs(self.p_full - other.p_full),
        )


class DegreeMarkovChain:
    """Builder/solver for the §6.2 degree MC.

    Args:
        params: protocol parameters ``(s, dL)``.
        loss_rate: the uniform loss probability ℓ.
        conserved_sum_degree: restrict states to the line ``d + 2k = dm``
            (requires ``ℓ = 0`` and ``dL = 0``; Lemma 6.2's invariant).

    States are capped at ``d + 2k <= 3s`` (:attr:`sum_degree_cap`), as in
    the paper.
    """

    def __init__(
        self,
        params: SFParams,
        loss_rate: float = 0.0,
        conserved_sum_degree: Optional[int] = None,
    ):
        self._template: Optional[_TransitionTemplate] = None
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.params = params
        self.loss_rate = loss_rate
        s = params.view_size
        self.sum_degree_cap = 3 * s
        self.conserved_sum_degree = conserved_sum_degree
        if conserved_sum_degree is not None:
            if loss_rate != 0.0 or params.d_low != 0:
                raise ValueError(
                    "sum-degree conservation (Lemma 6.2) requires loss_rate=0 "
                    "and d_low=0"
                )
            if conserved_sum_degree % 2 != 0:
                raise ValueError("conserved sum degree must be even")
            if not 0 < conserved_sum_degree <= s:
                raise ValueError(
                    f"conserved sum degree must be in (0, s={s}], got "
                    f"{conserved_sum_degree}"
                )
        self.states = self._build_states()
        self._index = {state: i for i, state in enumerate(self.states)}

    # ------------------------------------------------------------------
    # State space
    # ------------------------------------------------------------------

    def _build_states(self) -> List[State]:
        s, d_low = self.params.view_size, self.params.d_low
        states: List[State] = []
        if self.conserved_sum_degree is not None:
            dm = self.conserved_sum_degree
            for d in range(0, min(s, dm) + 1, 2):
                k = (dm - d) // 2
                states.append((d, k))
            return states
        for d in range(d_low, s + 1, 2):
            max_k = (self.sum_degree_cap - d) // 2
            for k in range(0, max_k + 1):
                if d == 0 and k == 0:
                    continue  # the isolated state is unreachable (Fig 6.2)
                states.append((d, k))
        return states

    # ------------------------------------------------------------------
    # Transition construction
    # ------------------------------------------------------------------

    def _transitions(
        self, state: State, env: _Environment
    ) -> List[Tuple[State, float]]:
        """Non-self-loop transition rates (per round) out of ``state``."""
        s, d_low = self.params.view_size, self.params.d_low
        loss = self.loss_rate
        d, k = state
        pair_choice = s * (s - 1)
        q = d * (d - 1) / pair_choice
        deliver_space = (1.0 - loss) * (1.0 - env.p_full)
        moves: List[Tuple[State, float]] = []

        # Initiate (rate 1).
        if q > 0.0:
            d_after = d if d <= d_low else d - 2
            moves.append(((d_after, k + 1), q * deliver_space))
            if d_after != d:
                moves.append(((d_after, k), q * (1.0 - deliver_space)))
            # Duplication with a lost/deleted message changes nothing.

        if k > 0:
            rate_events = k * env.rate_per_instance
            p_dup = env.p_dup_holder

            # Targeted (tagged node is the message destination).
            gains_room = d < s
            arrive = 1.0 - loss
            if gains_room:
                moves.append(((d + 2, k - 1), rate_events * (1.0 - p_dup) * arrive))
                moves.append(((d, k - 1), rate_events * (1.0 - p_dup) * (1.0 - arrive)))
                moves.append(((d + 2, k), rate_events * p_dup * arrive))
            else:
                # Full view: arriving ids are deleted; only the holder-side
                # clearing matters.
                moves.append(((d, k - 1), rate_events * (1.0 - p_dup)))

            # Forwarded (tagged id is the payload).
            moved_ok = deliver_space
            moves.append(
                ((d, k - 1), rate_events * (1.0 - p_dup) * (1.0 - moved_ok))
            )
            moves.append(((d, k + 1), rate_events * p_dup * moved_ok))

        # Enforce the sum-degree cap / line restriction: redirect moves to
        # missing states into self-loops (i.e. drop them).
        valid = [
            (target, rate)
            for target, rate in moves
            if rate > 0.0 and target in self._index
        ]
        return valid

    def _environment_from(self, pi: np.ndarray) -> _Environment:
        s = self.params.view_size
        mean_d, mean_dd1, dup_mass, k_mass, k_full_mass = (
            self._cached_template().moments @ pi
        ).tolist()
        if mean_d <= 0.0 or mean_dd1 <= 0.0:
            # Degenerate distribution; fall back to inert environment.
            return _Environment(0.0, 0.0, 0.0)
        rate = mean_dd1 / (mean_d * s * (s - 1))
        p_dup = dup_mass / mean_dd1
        p_full = (k_full_mass / k_mass) if k_mass > 0.0 else 0.0
        return _Environment(rate, p_dup, p_full)

    def _cached_template(self) -> _TransitionTemplate:
        if self._template is None:
            self._template = self._build_template()
        return self._template

    def _build_template(self) -> _TransitionTemplate:
        """Enumerate potential transitions once, in scalar-builder order.

        Each state gets the eight move slots of ``_transitions``, one per
        kind; a slot is kept where its move is enabled and leads to
        another existing state, and the kept slots, read state by state,
        are the scalar builder's moves in its generation order.
        """
        s, d_low = self.params.view_size, self.params.d_low
        n = len(self.states)
        degrees = np.asarray(self.states, dtype=np.int64).T
        d, k = degrees
        # Each (d, k) cell's state index, −1 where there is none; the
        # targets reach d + 2 ≤ s + 2 and k + 1, and k − 1 = −1 reads the
        # last, empty column.
        index = np.full((s + 3, int(k.max()) + 2), -1, dtype=np.int64)
        index[d, k] = np.arange(n)
        q = d * (d - 1) / (s * (s - 1))
        d_after = np.where(d <= d_low, d, d - 2)
        holder = k > 0
        room = holder & (d < s)
        target = index[
            np.stack([d_after, d_after, d + 2, d, d + 2, d, d, d], axis=1),
            np.stack([k + 1, k, k - 1, k - 1, k, k - 1, k - 1, k + 1], axis=1),
        ]
        enabled = np.stack(
            [q > 0.0, (q > 0.0) & (d_after != d), room, room, room,
             holder & ~room, holder, holder],
            axis=1,
        )
        enabled &= (target >= 0) & (target != np.arange(n)[:, None])
        rows_arr, kind = np.nonzero(enabled)
        cols_arr = target[rows_arr, kind]
        base = np.where(kind <= _INIT_FAIL, q[rows_arr], k[rows_arr])
        # Stable sort groups duplicate (row, col) pairs while keeping each
        # group's entries in generation order, so ``reduceat`` sums them
        # exactly as the scalar builder's ``+=`` does.
        order = np.argsort(rows_arr * n + cols_arr, kind="stable")
        sorted_rows = rows_arr[order]
        sorted_cols = cols_arr[order]
        flat = sorted_rows * n + sorted_cols
        is_start = np.ones(flat.shape, dtype=bool)
        is_start[1:] = flat[1:] != flat[:-1]
        group_starts = np.flatnonzero(is_start)
        merged_rows = sorted_rows[group_starts]
        merged_cols = sorted_cols[group_starts]

        position = np.empty(n, dtype=np.int64)
        position[np.lexsort((d, k))] = np.arange(n)
        # Balance equation i = the target's position, unknown j = the
        # source's: ``P[row, col]`` lands at ``(Pᵀ − I)[col, row]``, which
        # ``gbsv`` keeps at ``ab[lower + upper + i − j, j]``.
        i, j = position[merged_cols], position[merged_rows]
        lower = int((i - j).max(initial=0))
        upper = int((j - i).max(initial=0))
        band_rows = 2 * lower + upper + 1
        dd1 = d * (d - 1)
        return _TransitionTemplate(
            rows=rows_arr,
            base=base,
            kind=kind,
            order=order,
            group_starts=group_starts,
            merged_rows=merged_rows,
            merged_cols=merged_cols,
            position=position,
            band=(lower, upper),
            band_rows=band_rows,
            band_off=(lower + upper + i - j) + j * band_rows,
            band_diag=(lower + upper) + position * band_rows,
            solve_band=_band_solver(lower, upper),
            degrees=degrees,
            moments=np.array(
                [d, dd1, dd1 * (d == d_low), k, k * (d == s)], dtype=np.float64
            ),
        )

    def _transition_parts(
        self, env: _Environment
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``P``'s merged off-diagonal entries and its diagonal under ``env``.

        The entries are aligned with the template's ``merged_rows`` /
        ``merged_cols``; both :meth:`_build_matrix` and the banded balance
        system of :meth:`_stationary` are scatters of these two arrays.
        Each kind's factor is applied with the scalar operation order and
        duplicate entries are summed in generation order, so the values
        are those of the per-state loop builder bit for bit.
        """
        template = self._cached_template()
        n = len(self.states)
        loss = self.loss_rate
        arrive = 1.0 - loss
        deliver_space = (1.0 - loss) * (1.0 - env.p_full)
        r = env.rate_per_instance
        p_dup = env.p_dup_holder
        p_keep = 1.0 - p_dup

        # A kind's rate is ((base · f1) · f2) · f3, one row per factor and
        # one column per kind; a factor of exactly 1.0 changes no bit, so
        # each kind keeps the scalar operation order of ``_transitions``.
        f1, f2, f3 = np.array([
            [deliver_space, 1.0 - deliver_space, r, r, r, r, r, r],
            [1.0, 1.0, p_keep, p_keep, p_dup, p_keep, p_keep, p_dup],
            [1.0, 1.0, arrive, 1.0 - arrive, arrive, 1.0,
             1.0 - deliver_space, deliver_space],
        ]).take(template.kind, axis=1)
        data = template.base * f1
        data *= f2
        data *= f3

        outflow = np.bincount(template.rows, weights=data, minlength=n)
        lam = float(outflow.max())
        if lam <= 0.0:
            raise RuntimeError("degenerate chain: no transitions anywhere")
        merged = np.add.reduceat(data[template.order], template.group_starts)
        # scipy's ``csr / lam`` multiplies by the reciprocal; do the same
        # so off-diagonal probabilities match the scalar builder bit for bit.
        return merged * (1.0 / lam), 1.0 - outflow / lam

    def _build_matrix(self, env: _Environment) -> csr_matrix:
        """The transition matrix ``P``: one coo→csr construction.

        Bit-identical to a per-state scalar builder that sums
        :meth:`_transitions` into a ``lil`` matrix (the oracle in
        ``tests/test_markov_degree_mc_vectorized.py``): env-zeroed entries
        are pruned (the ``rate > 0`` filter of ``_transitions``) and so
        are zero diagonals — ``lil`` assignment drops zeros, so the scalar
        builder stores none anywhere (off-diagonal zeros come from
        env-zeroed factors, diagonal zeros from max-outflow rows).  The
        fixed point never builds it: :meth:`_stationary` scatters the same
        values straight into a band.
        """
        from scipy.sparse import coo_matrix

        template = self._cached_template()
        n = len(self.states)
        off_diag, diagonal = self._transition_parts(env)
        keep = off_diag != 0.0
        diag_idx = np.flatnonzero(diagonal != 0.0)
        all_rows = np.concatenate([template.merged_rows[keep], diag_idx])
        all_cols = np.concatenate([template.merged_cols[keep], diag_idx])
        all_vals = np.concatenate([off_diag[keep], diagonal[diag_idx]])
        return coo_matrix((all_vals, (all_rows, all_cols)), shape=(n, n)).tocsr()

    @staticmethod
    def _mode(pi: np.ndarray) -> int:
        """The state that holds the most mass: where the next solve pins."""
        return int(np.argmax(pi))

    def _stationary(self, env: _Environment, pin: int) -> np.ndarray:
        """The stationary π of ``P(env)``, by one banded solve.

        The balance equations ``(Pᵀ − I)π = 0`` sum to zero, so any one is
        redundant: the equation of state ``pin`` is replaced by
        ``π[pin] = 1`` — which, unlike a spliced ``Σπ = 1`` row, keeps the
        k-major band — and the solution is renormalised.  The band is
        filled in place in ``gbsv``'s layout and handed to the template's
        LAPACK routine (:func:`_band_solver`).  The n−1 kept equations fix
        π's direction and the pin only its scale, so any state that holds
        mass will do; one that holds less than a rounding error of the
        mode's (a transient state under ``p_dup = 0``, a far corner of the
        grid) is pinned by round-off alone.  A solve that is not finite,
        has a negative entry below −1e-12, leaves a balance residual
        ``‖πP − π‖∞`` above 1e-10 or whose pin holds no such mass is
        repeated once, pinned at the mode it found.  A pin that leaves the
        kept equations exactly singular (a zero pivot) yields no π to
        take a mode from: that solve is repeated once pinned at the state
        with the largest inflow ``Σ_j P[j, i]``, which needs none.  If
        the repeat fails too the chain has no trustworthy stationary law
        and this raises rather than clip a wrong vector into a
        distribution.
        """
        template = self._cached_template()
        n = len(self.states)
        lower, upper = template.band
        rows = template.band_rows
        centre = lower + upper
        off_diag, diagonal = self._transition_parts(env)
        balance_diagonal = diagonal - 1.0
        for _ in range(2):
            p = int(template.position[pin])
            flat = np.zeros(rows * n)
            flat[template.band_off] = off_diag
            flat[template.band_diag] = balance_diagonal
            across = np.arange(max(p - lower, 0), min(p + upper, n - 1) + 1)
            flat[centre + p + across * (rows - 1)] = 0.0  # row p of Pᵀ − I
            flat[centre + p * rows] = 1.0
            rhs = np.zeros(n)
            rhs[p] = 1.0
            solved, info = template.solve_band(flat.reshape(n, rows).T, rhs)
            if info < 0:
                raise ValueError(f"LAPACK band solve: illegal argument {-info}")
            if info > 0:
                next_pin = int(np.argmax(np.bincount(
                    template.merged_cols, weights=off_diag, minlength=n
                )))
            else:
                total = solved.sum()
                if not np.isfinite(total) or total == 0.0:
                    break
                pi = solved[template.position] / total
                inflow = np.bincount(
                    template.merged_cols,
                    weights=pi[template.merged_rows] * off_diag,
                    minlength=n,
                )
                residual = np.abs(inflow + pi * balance_diagonal).max()
                next_pin = self._mode(pi)
                if (
                    pi.min() >= -1e-12
                    and residual <= 1e-10
                    and pi[pin] > np.finfo(float).eps * pi[next_pin]
                ):
                    pi = np.clip(pi, 0.0, None)
                    return pi / pi.sum()
            if next_pin == pin:
                break
            pin = next_pin
        raise RuntimeError(
            "failed to solve for a stationary distribution "
            f"(s={self.params.view_size}, dL={self.params.d_low}, "
            f"l={self.loss_rate}, environment {env})"
        )

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------

    def solve(self, cache: bool = True) -> DegreeMCResult:
        """Run the paper's iterative scheme to the self-consistent π.

        Each iteration computes the stationary distribution for the current
        environment and re-derives the environment from it; :data:`DAMPING`
        mixes old and new environments for stability.  Raises
        ``RuntimeError`` when the fixed point has not met :data:`TOLERANCE`
        after :data:`MAX_ITERATIONS` — a result is always a converged one —
        and ``ValueError`` for the reducible ``ℓ = 0, dL = 0`` full grid
        (Lemma 6.2), which has no unique stationary law to converge to.

        With ``cache`` (the default) the result is memoized in the
        process-wide :data:`~repro.markov.solve_cache.DEFAULT_CACHE`,
        keyed on every input it depends on — chain construction and
        solver settings alike — so a hit is always exact.  The memo
        holds a pickled copy and a hit returns a fresh unpickling, so no
        caller can mutate what the next one reads.  ``cache=False``
        skips the memo for this solve.
        """
        if (
            self.conserved_sum_degree is None
            and self.loss_rate == 0.0
            and self.params.d_low == 0
        ):
            raise ValueError(
                "with loss_rate=0 and d_low=0 the chain conserves d + 2k "
                "(Lemma 6.2) and is reducible on the full grid; pass "
                "conserved_sum_degree to solve it on one line"
            )
        if not cache:
            return self._fixed_point()
        key = (
            self.params.view_size,
            self.params.d_low,
            self.loss_rate,
            self.conserved_sum_degree,
            self.sum_degree_cap,
            MAX_ITERATIONS,
            TOLERANCE,
            DAMPING,
        )
        hit = DEFAULT_CACHE.get(key)
        if hit is not None:
            return hit
        result = self._fixed_point()
        DEFAULT_CACHE.put(key, result)
        return result

    def _fixed_point(self) -> DegreeMCResult:
        """Iterate environment → π → environment until it stops moving."""
        s = self.params.view_size
        # Neutral starting guess: moderately busy network.
        env = _Environment(
            rate_per_instance=0.5 / s,
            p_dup_holder=0.01,
            p_full=0.01,
        )
        # Pinned where the previous iterate peaked; on the first, at the
        # middle of the grid, where a low-loss chain does.
        pin = len(self.states) // 2
        for iterations in range(1, MAX_ITERATIONS + 1):
            pi = self._stationary(env, pin)
            pin = self._mode(pi)
            new_env = self._environment_from(pi)
            if new_env.distance(env) < TOLERANCE:
                return self._result(pi, new_env, iterations)
            env = _Environment(
                rate_per_instance=(
                    DAMPING * env.rate_per_instance
                    + (1 - DAMPING) * new_env.rate_per_instance
                ),
                p_dup_holder=(
                    DAMPING * env.p_dup_holder + (1 - DAMPING) * new_env.p_dup_holder
                ),
                p_full=DAMPING * env.p_full + (1 - DAMPING) * new_env.p_full,
            )
        raise RuntimeError(
            f"degree-MC fixed point did not converge within {MAX_ITERATIONS} "
            f"iterations (s={s}, dL={self.params.d_low}, l={self.loss_rate})"
        )

    def _result(
        self, pi: np.ndarray, env: _Environment, iterations: int
    ) -> DegreeMCResult:
        d, k = self._cached_template().degrees
        out_mass = np.bincount(d, weights=pi)
        in_mass = np.bincount(k, weights=pi)
        out_support, in_support = np.unique(d), np.unique(k)
        deletion = (1.0 - self.loss_rate) * env.p_full
        return DegreeMCResult(
            states=list(self.states),
            stationary=pi,
            outdegree_pmf=dict(
                zip(out_support.tolist(), out_mass[out_support].tolist())
            ),
            indegree_pmf=dict(
                zip(in_support.tolist(), in_mass[in_support].tolist())
            ),
            p_full=env.p_full,
            p_dup_holder=env.p_dup_holder,
            # Of a random *initiator*, conditioned on a non-self-loop
            # action: actions are weighted by q(d) ∝ d(d−1), the same size
            # bias as a holder's, so it is ``p_dup_holder`` of this π.
            duplication_probability=env.p_dup_holder,
            deletion_probability=deletion,
            iterations=iterations,
        )

    # ------------------------------------------------------------------
    # Structure (Figure 6.2)
    # ------------------------------------------------------------------

    def transition_classes(self) -> Dict[str, List[Tuple[State, State]]]:
        """Classify non-self-loop transitions as in Figure 6.2.

        ``atomic`` — transitions of lossless, duplication-free,
        deletion-free actions (solid lines): ``(d,k) → (d−2,k+1)`` from an
        initiate and ``(d,k) → (d+2,k−1)`` from being targeted.
        ``lossy`` — transitions that require loss, duplication, or deletion
        (dashed lines).
        """
        atomic: List[Tuple[State, State]] = []
        lossy: List[Tuple[State, State]] = []
        probe = _Environment(rate_per_instance=0.01, p_dup_holder=0.5, p_full=0.5)
        s, d_low = self.params.view_size, self.params.d_low
        for state in self.states:
            d, k = state
            seen = set()
            for target, _ in self._transitions(state, probe):
                if target == state or target in seen:
                    continue
                seen.add(target)
                td, tk = target
                if (td, tk) == (d - 2, k + 1) and d > d_low:
                    atomic.append((state, target))
                elif (td, tk) == (d + 2, k - 1) and d < s:
                    atomic.append((state, target))
                else:
                    lossy.append((state, target))
        return {"atomic": atomic, "lossy": lossy}

