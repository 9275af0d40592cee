"""Checkpoint/resume journal for sweep grids.

A long sweep that dies 90% of the way through should not repeat the 90%.
:class:`CheckpointStore` journals each completed cell's result to disk as
it lands, so a re-run of the *same* sweep resumes from where the previous
run stopped — with bit-identical output for pure workers, because the
journaled result **is** the worker's return value and per-cell seeds are
position-derived (see :mod:`repro.runner.sweep`).

Entries are content-addressed: the key is the SHA-256 of everything the
cell's result depends on — a schema version, the worker's identity, the
cell's grid position, point, replication, seed, and the shared context —
so a changed grid, seed, or worker can never produce a false resume.  On
disk they follow the one policy of :mod:`repro.util.pickle_store` (shared
with :mod:`repro.markov.solve_cache`): atomic writes, a failed write
logged but never raised, corrupt entries quarantined and treated as
misses, so one bad file costs one recomputation, not a wedged resume.

Only *successful* cells are journaled.  Failed, skipped, and timed-out
cells are retried by the next run — exactly the semantics a resumable
sweep wants.

A wrapper that merely perturbs or observes *execution* (not the computed
value) can set a ``checkpoint_token`` attribute naming the worker it
wraps; :func:`worker_token` honors it, which is what lets a sweep run
under :class:`repro.obs.worker.MeteredWorker` — or interrupted under
the tests' fault injector — resume with the plain worker.

:func:`gc_store` (the ``repro checkpoint-gc`` command) prunes entries the
current code can no longer resume from.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple, Union

from repro.obs import get_telemetry
from repro.util.pickle_store import QUARANTINE_DIR, PickleFiles, clear_entries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from repro.runner.sweep import GridCell

LOGGER = logging.getLogger("repro.runner.checkpoint")

#: Bump whenever the journal layout or keying semantics change: every key
#: embeds this, so entries from older code can never be resumed from.
CHECKPOINT_SCHEMA_VERSION = 1


def worker_token(worker: Any) -> str:
    """The identity under which ``worker``'s results are journaled.

    A wrapper that changes *how* a worker runs but not *what* it computes
    (e.g. a fault injector) sets ``checkpoint_token`` to the wrapped
    worker's token so its checkpoints interoperate with the plain worker.
    """
    token = getattr(worker, "checkpoint_token", None)
    if token:
        return str(token)
    module = getattr(worker, "__module__", type(worker).__module__)
    name = getattr(worker, "__qualname__", type(worker).__qualname__)
    return f"{module}.{name}"


def _describe(value: Any) -> str:
    """Content description of ``value`` for key derivation.

    ``repr`` alone truncates containers like numpy arrays, so a pickle
    digest is appended when the value is picklable; together they make
    distinct points/contexts collide only if both their repr *and* their
    serialized form agree.
    """
    try:
        digest = hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()
    except Exception:
        digest = "unpicklable"
    return f"{value!r}#{digest}"


@dataclass
class CheckpointStats:
    """Journal counters for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0


class CheckpointStore:
    """Disk journal of completed sweep cells, one pickle per cell.

    Args:
        directory: where entries live; created on first write.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.stats = CheckpointStats()
        self._files = PickleFiles(
            LOGGER,
            "checkpoint",
            unwritten="the sweep continues but is NOT being journaled",
            corrupt="the cell will be recomputed",
        )

    def cell_key(self, worker: Any, cell: "GridCell", context: Any) -> str:
        """SHA-256 content address of one (worker, cell, context) triple."""
        canonical = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "worker": worker_token(worker),
            "index": cell.index,
            "point": _describe(cell.point),
            "replication": cell.replication,
            "seed": repr(cell.seed),
            "context": _describe(context),
        }
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """``(True, result)`` for a journaled cell, else ``(False, None)``.

        A corrupt entry is quarantined and reported as a miss, so the
        cell is simply recomputed.
        """
        hit, result = self._files.read(
            self._path(key), lambda payload: payload["result"]
        )
        if hit:
            self.stats.hits += 1
            get_telemetry().inc("checkpoint.hits")
        else:
            self.stats.misses += 1
            get_telemetry().inc("checkpoint.misses")
        return hit, result

    def store(
        self,
        key: str,
        cell: "GridCell",
        result: Any,
        token: Optional[str] = None,
    ) -> None:
        """Atomically journal one completed cell's result.

        ``token`` is the producing worker's :func:`worker_token`; it is
        embedded in the payload (additively — absent in entries written
        by older code) so :func:`gc_store` can prune entries belonging to
        workers that no longer exist.
        """
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "cell": {
                "index": cell.index,
                "point": cell.point,
                "replication": cell.replication,
                "seed": cell.seed,
            },
            "result": result,
        }
        if token is not None:
            payload["worker"] = token
        if self._files.write(self._path(key), payload):
            self.stats.writes += 1
            get_telemetry().inc("checkpoint.writes")

    def clear(self) -> None:
        """Delete every journal entry."""
        clear_entries(self.directory)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))


# ---------------------------------------------------------------------
# Garbage collection


@dataclass
class GCReport:
    """What :func:`gc_store` found and (unless ``dry_run``) removed."""

    scanned: int = 0
    pruned: int = 0
    kept: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False
    #: prune counts keyed by reason (``stale-schema``, ``unreadable``,
    #: ``worker-mismatch``, ``orphan-tmp``, ``quarantined``).
    reasons: Dict[str, int] = field(default_factory=dict)

    def note(self, reason: str, size: int) -> None:
        self.pruned += 1
        self.reclaimed_bytes += size
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def gc_store(
    directory: Union[str, Path],
    *,
    workers: Optional[Iterable[str]] = None,
    dry_run: bool = False,
) -> GCReport:
    """Prune checkpoint entries the current code can no longer resume from.

    Removes, reporting reclaimed bytes per category:

    * journal entries (``*.pkl``) that are unreadable or whose embedded
      schema version differs from :data:`CHECKPOINT_SCHEMA_VERSION`;
    * journal entries whose ``worker`` token is not in ``workers`` (when
      a filter is given; entries written before tokens were recorded
      carry none and are pruned under a filter — conservative, since
      their producing worker cannot be verified);
    * orphaned ``*.tmp`` files from writers that died mid-write;
    * everything under ``quarantine/`` (already judged corrupt).

    Resumable entries are kept.  ``dry_run`` reports without deleting.
    """
    root = Path(directory)
    report = GCReport(dry_run=dry_run)
    if not root.is_dir():
        return report
    keep_workers = set(workers) if workers is not None else None

    def _remove(path: Path, reason: str) -> None:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                return
        report.note(reason, size)
        LOGGER.debug("checkpoint-gc: %s %s (%s)",
                     "would prune" if dry_run else "pruned", path.name, reason)

    for path in sorted(root.glob("*.pkl")):
        report.scanned += 1
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            schema = payload["schema"]
        except Exception:
            _remove(path, "unreadable")
            continue
        if schema != CHECKPOINT_SCHEMA_VERSION:
            _remove(path, "stale-schema")
            continue
        if keep_workers is not None and payload.get("worker") not in keep_workers:
            _remove(path, "worker-mismatch")
            continue
        report.kept += 1

    for path in sorted(root.glob("*.tmp")):
        report.scanned += 1
        _remove(path, "orphan-tmp")

    aside = root / QUARANTINE_DIR
    if aside.is_dir():
        for path in sorted(aside.iterdir()):
            if path.is_file():
                report.scanned += 1
                _remove(path, "quarantined")

    return report
