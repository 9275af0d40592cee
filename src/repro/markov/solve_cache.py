"""Content-addressed cache for degree-MC fixed-point solves.

Many experiments solve *identical* chains — ``fig_6_2``, ``fig_6_3``,
``table_6_3``, and the sweeps all revisit ``s = 40, dL = 18`` at the same
handful of loss rates.  A solve is pure: its result is fully determined
by the chain construction parameters and the solver settings.  This
module memoizes solves under a key derived from exactly those inputs
(plus a schema version, so any change to the solver semantics invalidates
every old entry wholesale).

Two layers:

* an in-process dictionary (free hits within one experiment run);
* a disk directory of pickle files named by the SHA-256 of the key, so
  separate processes — including :class:`repro.runner.SweepRunner`
  workers — share results across runs.

The disk layer follows the one policy of :mod:`repro.util.pickle_store`
(shared with the sweep checkpoint journal): atomic writes, so concurrent
workers solving the same chain race harmlessly (last writer wins with an
identical payload) and a reader never observes a half-written entry; a
failed write logged but never raised (the memory layer still serves the
process); corrupt entries quarantined on first read and treated as misses
— one bad file costs one re-solve, not a warning per run forever.

``REPRO_SOLVE_CACHE_DIR=<path>`` relocates the disk layer (default
``~/.cache/repro-gossip/degree-mc``); ``solve(cache=False)`` is the way to
skip the cache for one solve.  Nothing maintains the directory: a stale
entry is never read, since its key embeds the schema version, so
deleting the directory is the only clean-up there is.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs import get_telemetry
from repro.util.pickle_store import PickleFiles

LOGGER = logging.getLogger("repro.markov.solve_cache")

#: Bump whenever the solver's numerical behavior changes: every key
#: embeds this, so stale entries from older code can never be returned.
#: 2: the banded stationary solve (iterates moved in their 15th digit).
SOLVE_SCHEMA_VERSION = 2

_ENV_DIR = "REPRO_SOLVE_CACHE_DIR"


def solve_key(**inputs: Any) -> str:
    """SHA-256 content address for a solve described by ``inputs``.

    ``inputs`` must contain every value the solve result depends on
    (chain construction *and* solver settings).  Floats are addressed by
    ``repr``, which round-trips IEEE doubles exactly — ``0.1`` and the
    nearest double to ``0.1`` share a key, distinct doubles never do.
    """
    canonical = {
        "schema": SOLVE_SCHEMA_VERSION,
        **{name: repr(value) for name, value in sorted(inputs.items())},
    }
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters, split by layer."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0

    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


@dataclass
class SolveCache:
    """Two-layer (memory + disk) content-addressed result cache.

    Args:
        directory: disk location; ``None`` resolves per-operation from
            ``REPRO_SOLVE_CACHE_DIR`` falling back to the user cache dir,
            so tests and deployments can redirect it via the environment
            without touching code.
    """

    directory: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: Dict[str, Any] = field(default_factory=dict)
    _files: PickleFiles = field(
        default_factory=lambda: PickleFiles(
            LOGGER,
            "solve_cache",
            unwritten="results stay in this process's memory only",
            corrupt="the solve will be recomputed",
        ),
        repr=False,
    )

    def resolve_directory(self) -> Path:
        if self.directory is not None:
            return Path(self.directory)
        override = os.environ.get(_ENV_DIR)
        if override:
            return Path(override)
        return Path.home() / ".cache" / "repro-gossip" / "degree-mc"

    def _path(self, key: str) -> Path:
        return self.resolve_directory() / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Return the cached result for ``key``, or ``None`` on a miss.

        A corrupt or unpicklable disk entry is quarantined so it costs one
        re-solve instead of silently re-failing on every future read;
        missing or unreadable files are plain misses.
        """
        tel = get_telemetry()
        if key in self._memory:
            self.stats.memory_hits += 1
            if tel.active:
                tel.inc("solve_cache.memory_hits")
                tel.event("solve_cache.hit", layer="memory")
            return self._memory[key]
        hit, result = self._files.read(self._path(key))
        if hit:
            self.stats.disk_hits += 1
            self._memory[key] = result
            if tel.active:
                tel.inc("solve_cache.disk_hits")
                tel.event("solve_cache.hit", layer="disk")
            return result
        self.stats.misses += 1
        if tel.active:
            tel.inc("solve_cache.misses")
            tel.event("solve_cache.miss")
        return None

    def put(self, key: str, result: Any) -> None:
        """Store a copy of ``result`` under ``key``: pickled once, the bytes
        go (atomically) to disk and their unpickling into memory, so the
        caller keeps ``result`` to itself.  A value that does not pickle
        stays in memory as it is."""
        path = self._path(key)
        data = self._files.pickled(path, result)
        self._memory[key] = result if data is None else pickle.loads(data)
        self.stats.writes += 1
        tel = get_telemetry()
        if tel.active:
            tel.inc("solve_cache.writes")
            tel.event("solve_cache.store")
        if data is not None:
            self._files.write_bytes(path, data)

    def clear_memory(self) -> None:
        self._memory.clear()


#: Process-wide default used by :meth:`DegreeMarkovChain.solve` when the
#: caller does not supply a cache of their own.
DEFAULT_CACHE = SolveCache()
