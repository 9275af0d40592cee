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
wraps; :func:`worker_token` honors it, which is what lets a sweep
interrupted under the tests' fault injector resume with the plain
worker.  (The sweep runner keys cells on the bare worker before it wraps
one in :class:`repro.obs.worker.MeteredWorker`, so metering needs no
token.)

Nothing maintains the directory: an entry is written once and read
until the directory is deleted.  A stale entry is never read, because
its key embeds the schema version and every input of the result, so
there is nothing to prune and deleting the directory reclaims all of it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any, Tuple, Union

from repro.obs import get_telemetry
from repro.util.pickle_store import PickleFiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from repro.runner.sweep import GridCell

LOGGER = logging.getLogger("repro.runner.checkpoint")

#: Bump whenever the keying semantics change, or the entry layout in a way
#: :meth:`CheckpointStore.load` cannot read: every key embeds this, so
#: entries from older code can never be resumed from.
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


class CheckpointStore:
    """Disk journal of completed sweep cells, one pickle per cell.

    Args:
        directory: where entries live; created on first write.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
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
        get_telemetry().inc("checkpoint.hits" if hit else "checkpoint.misses")
        return hit, result

    def store(self, key: str, result: Any) -> None:
        """Atomically journal one completed cell's result.

        The entry is ``{"result": result}``, the one field :meth:`load`
        reads; entries that carry more (older layouts) still load.
        """
        if self._files.write(self._path(key), {"result": result}):
            get_telemetry().inc("checkpoint.writes")

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))

