"""Generic finite Markov chains (the section 3.2 toolkit).

``MarkovChain`` wraps a stochastic transition matrix with the operations
the paper's arguments use: irreducibility and aperiodicity checks (the two
halves of ergodicity), stationary distributions, step-distribution
evolution ``p_t = p_0 Pᵗ``, total-variation convergence, reversibility and
double-stochasticity tests (Lemmas 7.3/7.4), and trajectory sampling.

Dense matrices are fine up to a few thousand states; the degree MC uses a
sparse path of its own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.util.rng import SeedLike, make_rng


class MarkovChain:
    """A finite MC over states ``0..n−1`` given by a stochastic matrix.

    Args:
        transition: square matrix ``P`` with ``P[x, y] = Pr(x → y)``; rows
            must sum to 1 (within ``tolerance``).  The chain keeps a
            read-only copy, so what it computes from ``P`` stays valid.
        labels: optional human-readable state labels for reporting.
    """

    def __init__(
        self,
        transition: np.ndarray,
        labels: Optional[Sequence[object]] = None,
        tolerance: float = 1e-9,
    ):
        matrix = np.array(transition, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"transition matrix must be square, got {matrix.shape}")
        if (matrix < -tolerance).any():
            raise ValueError("transition matrix has negative entries")
        row_sums = matrix.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=max(tolerance, 1e-9) * 10):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"row {worst} sums to {row_sums[worst]!r}, expected 1.0"
            )
        matrix.flags.writeable = False
        self.P = matrix
        self.n = matrix.shape[0]
        if labels is not None and len(labels) != self.n:
            raise ValueError(
                f"got {len(labels)} labels for {self.n} states"
            )
        self.labels = list(labels) if labels is not None else None
        self._stationary: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def is_irreducible(self, tolerance: float = 1e-12) -> bool:
        """True if the transition graph is strongly connected."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        sparse = csr_matrix(self.P > tolerance)
        count, _ = connected_components(sparse, directed=True, connection="strong")
        return count == 1

    def is_aperiodic(self, tolerance: float = 1e-12) -> bool:
        """True if the gcd of cycle lengths is 1.

        Sufficient shortcut used first: any self-loop makes an irreducible
        chain aperiodic (the paper's argument for both its MCs).  Falls back
        to the standard BFS periodicity computation otherwise.
        """
        if np.any(np.diag(self.P) > tolerance):
            return True
        return self._period(tolerance) == 1

    def _period(self, tolerance: float) -> int:
        import math

        # BFS levels; gcd of (level(u) + 1 − level(v)) over edges u→v.
        adjacency: List[List[int]] = [
            list(np.nonzero(self.P[x] > tolerance)[0]) for x in range(self.n)
        ]
        level = {0: 0}
        order = [0]
        for x in order:
            for y in adjacency[x]:
                if y not in level:
                    level[y] = level[x] + 1
                    order.append(y)
        g = 0
        for x in order:
            for y in adjacency[x]:
                if y in level:
                    g = math.gcd(g, level[x] + 1 - level[y])
        return abs(g) if g != 0 else 0

    def is_ergodic(self) -> bool:
        """Irreducible and aperiodic — the premise of the ergodic theorem."""
        return self.is_irreducible() and self.is_aperiodic()

    def is_doubly_stochastic(self, tolerance: float = 1e-9) -> bool:
        """Columns also sum to 1 — implies a uniform stationary distribution
        (the Lemma 7.4 + 7.5 route for the loss-free global MC)."""
        return bool(np.allclose(self.P.sum(axis=0), 1.0, atol=tolerance))

    def is_reversible(self, tolerance: float = 1e-9) -> bool:
        """Detailed balance w.r.t. the stationary distribution (Lemma 7.3)."""
        pi = self.stationary_distribution()
        flow = pi[:, None] * self.P
        return bool(np.allclose(flow, flow.T, atol=tolerance))

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """The unique π with πP = π, as a fresh copy (solved once per chain).

        Solved as a linear system with a normalization row — exact up to
        floating point, no iteration-count concerns.  That bordered system
        has full rank exactly when π is unique (one closed class), so a
        rank-deficient one raises ``np.linalg.LinAlgError`` rather than
        returning one of many answers.
        """
        if self._stationary is None:
            self._stationary = self._solve_stationary()
        return self._stationary.copy()

    def _solve_stationary(self) -> np.ndarray:
        a = self.P.T - np.eye(self.n)
        a[-1, :] = 1.0
        b = np.zeros(self.n)
        b[-1] = 1.0
        pi, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < self.n:
            raise np.linalg.LinAlgError(
                f"stationary distribution is not unique (rank {rank} < {self.n})"
            )
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise np.linalg.LinAlgError("failed to find a stationary distribution")
        return pi / total

    def evolve(self, p0: Sequence[float], steps: int) -> np.ndarray:
        """``p_t = p_0 Pᵗ`` — the distribution after ``steps`` transitions."""
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        p = np.asarray(p0, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"p0 must have shape ({self.n},), got {p.shape}")
        for _ in range(steps):
            p = p @ self.P
        return p

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_path(
        self, start: int, steps: int, seed: SeedLike = None
    ) -> List[int]:
        """Sample a trajectory of ``steps`` transitions from ``start``."""
        if not 0 <= start < self.n:
            raise ValueError(f"start state {start} out of range")
        rng = make_rng(seed)
        path = [start]
        state = start
        for _ in range(steps):
            state = int(rng.choice(self.n, p=self.P[state]))
            path.append(state)
        return path
