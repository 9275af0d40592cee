"""Protocol parameters for Send & Forget (section 5).

The protocol is parametrized by the view size ``s`` and the lower outdegree
threshold ``dL``.  The paper requires ``s ≥ 6`` and even (used by the
reachability proof, Lemma A.3) and ``0 ≤ dL ≤ s − 6``.  Outdegrees are always
even (Observation 5.1), so ``dL`` must be even as well.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SFParams:
    """Validated S&F parameters.

    Attributes:
        view_size: the view size ``s`` — an even integer, at least 6.
        d_low: the lower outdegree threshold ``dL`` — an even integer in
            ``[0, s − 6]``.  When a node's outdegree would drop below
            ``d_low`` the protocol duplicates instead of clearing sent
            entries, compensating for message loss.
    """

    view_size: int
    d_low: int = 0

    def __post_init__(self) -> None:
        s, d_low = self.view_size, self.d_low
        if s < 6:
            raise ValueError(f"view_size must be at least 6, got {s}")
        if s % 2 != 0:
            raise ValueError(f"view_size must be even, got {s}")
        if d_low < 0:
            raise ValueError(f"d_low must be nonnegative, got {d_low}")
        if d_low % 2 != 0:
            raise ValueError(f"d_low must be even, got {d_low}")
        if d_low > s - 6:
            raise ValueError(
                f"d_low must be at most view_size - 6 = {s - 6}, got {d_low}"
            )

    @property
    def outdegree_values(self) -> range:
        """All outdegrees permitted by Observation 5.1: even, in [dL, s]."""
        return range(self.d_low, self.view_size + 1, 2)

    def validate_outdegree(self, outdegree: int) -> None:
        """Raise if ``outdegree`` violates Observation 5.1."""
        if outdegree % 2 != 0:
            raise ValueError(f"outdegree must be even, got {outdegree}")
        if not self.d_low <= outdegree <= self.view_size:
            raise ValueError(
                f"outdegree {outdegree} outside [{self.d_low}, {self.view_size}]"
            )

    def validate_bootstrap(self, size: int) -> None:
        """Raise unless a joiner may start with ``size`` ids: even
        (Observation 5.1), at least ``dL`` (section 5), fitting the view."""
        if size % 2 != 0:
            raise ValueError(
                f"bootstrap view must have even size (Observation 5.1), got {size}"
            )
        if size < self.d_low:
            raise ValueError(
                f"joiner needs at least d_low={self.d_low} ids, got {size}"
            )
        if size > self.view_size:
            raise ValueError(f"bootstrap view exceeds view size {self.view_size}")

    @property
    def default_bootstrap_degree(self) -> int:
        """Initial outdegree of the ring bootstrap: even, in ``[dL, s]``,
        about three quarters of the view."""
        s = self.view_size
        return min(s - 2, max(self.d_low + 2, (3 * s // 4) & ~1))
