"""The on-disk policy of a directory holding one pickle per key.

The degree-MC solve cache (:mod:`repro.markov.solve_cache`) and the sweep
checkpoint journal (:mod:`repro.runner.checkpoint`) are two such
directories; :class:`PickleFiles` is the one place their discipline lives:

* a write goes through a temporary file in the same directory and
  :func:`os.replace` (atomic on POSIX and Windows): a crash mid-write
  leaves no half-written entry and concurrent writers race harmlessly.  A
  failed write — an unwritable directory or a payload that does not
  pickle — is logged and reported, never raised: losing the journal must
  not lose the computation;
* an absent or unreadable file is a miss and is left in place; bytes that
  do not unpickle into one of our entries are moved into ``quarantine/``
  for post-mortem, so they cost one recomputation, not one per read;
* the first trouble of each kind is logged at WARNING, the rest at DEBUG —
  a whole grid hitting the same unwritable directory says so once.

That is the whole policy: keys embed a schema version and every input
of the value, so a stale entry is never read and there is nothing to
prune.  Deleting the directory reclaims it; orphan ``*.tmp`` files (a
writer killed mid-write) and ``quarantine/`` are safe to delete at any
time.

These are pickles this library itself produced — private scratch space,
not an interchange format; do not point either store at untrusted data.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Set, Tuple

from repro.obs import get_telemetry

#: Name of the subdirectory corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"


class PickleFiles:
    """Reads and writes one store's entries under the policy above.

    ``store`` names it in log lines and in its ``<store>.quarantined``
    counter; ``unwritten`` and ``corrupt`` finish those lines with what a
    failed write or a quarantined entry costs the caller.
    """

    def __init__(self, logger: logging.Logger, store: str, unwritten: str, corrupt: str):
        self._logger = logger
        self._store = store
        self._unwritten = unwritten
        self._corrupt = corrupt
        self._warned: Set[str] = set()

    def write(self, path: Path, payload: Any) -> bool:
        """Pickle ``payload`` to ``path`` atomically; False if that failed."""
        data = self.pickled(path, payload)
        return data is not None and self.write_bytes(path, data)

    def pickled(self, path: Path, payload: Any) -> Optional[bytes]:
        """The bytes :meth:`write` stores for ``payload`` at ``path``, or
        None (logged) if it does not pickle."""
        try:
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # whatever pickling the payload can raise
            self._log_once(
                "pickle", "%s entry %s does not pickle (%r); %s",
                self._store, path.name, exc, self._unwritten,
            )
            return None

    def write_bytes(self, path: Path, data: bytes) -> bool:
        """Write pickled ``data`` to ``path`` atomically; False if that failed."""
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
                "write", "%s write to %s failed (errno %s: %s); %s",
                self._store, path.parent, exc.errno, exc.strerror, self._unwritten,
            )
            return False
        return True

    def read(
        self, path: Path, extract: Callable[[Any], Any] = lambda payload: payload
    ) -> Tuple[bool, Any]:
        """``(True, extract(payload))`` for a sound entry, else ``(False, None)``."""
        try:
            with open(path, "rb") as handle:
                return True, extract(pickle.load(handle))
        except OSError:
            pass  # absent or unreadable: a plain miss, left in place
        except Exception as exc:  # whatever foreign bytes can raise
            self._quarantine(path, exc)
        return False, None

    def _quarantine(self, path: Path, exc: Exception) -> None:
        aside = path.parent / QUARANTINE_DIR
        try:
            aside.mkdir(parents=True, exist_ok=True)
            os.replace(path, aside / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        get_telemetry().inc(f"{self._store}.quarantined")
        self._log_once(
            "quarantine", "quarantined corrupt %s entry %s (%r); %s",
            self._store, path.name, exc, self._corrupt,
        )

    def _log_once(self, kind: str, message: str, *args: Any) -> None:
        if kind in self._warned:
            self._logger.debug(message, *args)
            return
        self._warned.add(kind)
        self._logger.warning(message + " (further ones logged at DEBUG)", *args)
