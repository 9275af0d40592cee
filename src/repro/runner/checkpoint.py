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
so a changed grid, seed, or worker can never produce a false resume.
An entry is written to a temporary file in the same directory and moved
into place by :func:`os.replace`, so a crash mid-write leaves no
half-written entry and concurrent writers race harmlessly.  A failed
write — an unwritable directory or a result that does not pickle — is
logged, never raised: losing the journal must not lose the computation.
An absent or unreadable file is a miss; bytes that do not unpickle into
an entry are moved into ``quarantine/``, so one bad file costs one
recomputation, not a wedged resume.  The first trouble of each kind is
logged at WARNING, the rest at DEBUG.

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
there is nothing to prune and deleting the directory reclaims all of it;
orphan ``*.tmp`` files (a writer killed mid-write) and ``quarantine/``
are safe to delete at any time.  The entries are pickles this library
itself produced — private scratch space, not an interchange format; do
not point a store at untrusted data.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Set, Tuple, Union

from repro.obs import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from repro.runner.sweep import GridCell

LOGGER = logging.getLogger("repro.runner.checkpoint")

#: Bump whenever the keying semantics change, or the entry layout in a way
#: :meth:`CheckpointStore.load` cannot read: every key embeds this, so
#: entries from older code can never be resumed from.
CHECKPOINT_SCHEMA_VERSION = 1

#: Name of the subdirectory corrupt entries are moved into.
_QUARANTINE_DIR = "quarantine"
#: What a failed write and a quarantined entry cost, for the log lines.
_UNWRITTEN = "the sweep continues but is NOT being journaled"
_CORRUPT = "the cell will be recomputed"


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
        self._warned: Set[str] = set()

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
        path = self._path(key)
        hit, result = False, None
        try:
            with open(path, "rb") as handle:
                hit, result = True, pickle.load(handle)["result"]
        except OSError:
            pass  # absent or unreadable: a plain miss, left in place
        except Exception as exc:  # whatever foreign bytes can raise
            self._quarantine(path, exc)
        get_telemetry().inc("checkpoint.hits" if hit else "checkpoint.misses")
        return hit, result

    def store(self, key: str, result: Any) -> None:
        """Atomically journal one completed cell's result.

        The entry is ``{"result": result}``, the one field :meth:`load`
        reads; entries that carry more (older layouts) still load.
        """
        path = self._path(key)
        try:
            data = pickle.dumps({"result": result}, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # whatever pickling the result can raise
            self._log_once(
                "pickle", "checkpoint entry %s does not pickle (%r); %s",
                path.name, exc, _UNWRITTEN,
            )
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_name, path)
            except BaseException:
                os.unlink(temp_name)
                raise
        except OSError as exc:
            self._log_once(
                "write", "checkpoint write to %s failed (errno %s: %s); %s",
                path.parent, exc.errno, exc.strerror, _UNWRITTEN,
            )
            return
        get_telemetry().inc("checkpoint.writes")

    def _quarantine(self, path: Path, exc: Exception) -> None:
        aside = path.parent / _QUARANTINE_DIR
        try:
            aside.mkdir(parents=True, exist_ok=True)
            os.replace(path, aside / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        get_telemetry().inc("checkpoint.quarantined")
        self._log_once(
            "quarantine", "quarantined corrupt checkpoint entry %s (%r); %s",
            path.name, exc, _CORRUPT,
        )

    def _log_once(self, kind: str, message: str, *args: Any) -> None:
        if kind in self._warned:
            LOGGER.debug(message, *args)
            return
        self._warned.add(kind)
        LOGGER.warning(message + " (further ones logged at DEBUG)", *args)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))

