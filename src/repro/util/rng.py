"""Deterministic random-number-generator construction.

All stochastic components in this library (protocol engines, loss models,
churn processes) draw from :class:`numpy.random.Generator` instances created
here, so every experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

from math import log1p
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (OS entropy), an integer, a ``SeedSequence``,
    or an existing ``Generator`` (returned unchanged so callers can thread
    a generator through layered components without reseeding).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class BlockDraws:
    """Scalar draws served from a block of uniforms off one ``Generator``.

    A scalar call into a :class:`numpy.random.Generator` costs 0.5-2.6 µs,
    most of it the crossing, and a per-pick S&F action makes four or five.
    This wraps one seeded ``Generator``, draws ``BLOCK`` uniforms at a time
    and hands them out one per call under the three names protocols,
    ``View``, loss and delay models, engines and transports use, so it
    passes wherever they take an ``rng``.  Each runtime has one: the
    sequential engine's and the DES's ``draws`` and the live cluster's
    ``cluster.draws``.  Every draw comes off the one stream, in call
    order: equal seeds and equal call sequences give equal values.  It
    draws nothing until its first call.
    """

    BLOCK = 1024

    __slots__ = ("_rng", "_pop")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._pop = [].pop

    def random(self) -> float:
        """A uniform in ``[0, 1)``."""
        try:
            return self._pop()
        except IndexError:
            block = self._rng.random(self.BLOCK).tolist()
            self._pop = block.pop
            return block.pop()

    def integers(self, high: int) -> int:
        """A uniform integer in ``[0, high)``, as ``int(u * high)``.

        The discipline of :func:`repro.kernel.base.rank_from_uniform`.  A
        double below 1 times an integer below 2**53 rounds to a double
        below that integer, so the result never reaches ``high``.  Like
        ``Generator.integers``, an empty range (``high < 1``) is a
        ``ValueError``: ``int(u * -5)`` would index from a list's end.
        """
        if high < 1:
            raise ValueError(f"high must be at least 1, got {high}")
        try:
            return int(self._pop() * high)
        except IndexError:
            return int(self.random() * high)

    def exponential(self, scale: float) -> float:
        """An exponential variate with mean ``scale`` (inverse transform)."""
        return -scale * log1p(-self.random())
