"""Per-process memo of degree-MC fixed-point solves.

Many experiments solve *identical* chains — ``fig_6_2``, ``fig_6_3``,
``table_6_3``, and the sweeps all revisit ``s = 40, dL = 18`` at the same
handful of loss rates.  A solve is pure: its result is fully determined
by the chain construction parameters and the solver settings, which
:meth:`DegreeMarkovChain.solve` passes as a plain tuple key.

Each entry is held as its pickle bytes: ``put`` is one ``dumps`` and
``get`` one ``loads``, so every hit is a fresh object no caller shares.
The memo lives and dies with the process; a cold solve costs ≈ 10 ms at
``s = 40``, and long runs resume whole cells from the checkpoint journal
(:mod:`repro.runner.checkpoint`).  ``solve(cache=False)`` skips it for
one solve.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional

from repro.obs import get_telemetry


@dataclass
class CacheStats:
    """Hit/miss/write counters."""

    hit_count: int = 0
    misses: int = 0
    writes: int = 0

    def hits(self) -> int:
        return self.hit_count


@dataclass
class SolveCache:
    """In-process memo: key → pickled result."""

    stats: CacheStats = field(default_factory=CacheStats)
    _memory: Dict[Hashable, bytes] = field(default_factory=dict)

    def get(self, key: Hashable) -> Optional[Any]:
        """A fresh copy of the result stored under ``key``, or ``None``."""
        data = self._memory.get(key)
        tel = get_telemetry()
        if data is None:
            self.stats.misses += 1
            if tel.active:
                tel.inc("solve_cache.misses")
                tel.event("solve_cache.miss")
            return None
        self.stats.hit_count += 1
        if tel.active:
            tel.inc("solve_cache.hits")
            tel.event("solve_cache.hit")
        return pickle.loads(data)

    def put(self, key: Hashable, result: Any) -> None:
        """Store a copy of ``result``, so the caller keeps it to itself."""
        self._memory[key] = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.writes += 1
        tel = get_telemetry()
        if tel.active:
            tel.inc("solve_cache.writes")
            tel.event("solve_cache.store")

    def clear_memory(self) -> None:
        self._memory.clear()


#: The process-wide memo :meth:`DegreeMarkovChain.solve` reads and fills.
DEFAULT_CACHE = SolveCache()
