"""Schema-versioned JSONL event/span tracing.

A :class:`Tracer` appends one JSON object per line to a trace file.
Every record carries the same envelope::

    {"schema": 1, "ts": <unix seconds>, "type": "<record type>", ...}

plus record-specific fields.  Record *types* are a stable, documented
vocabulary (see ``docs/observability.md``); ``tests/test_trace_schema.py``
pins the (type → field set) mapping of a fixed-seed run against a
checked-in snapshot, so trace-format drift fails CI instead of silently
breaking downstream consumers.

Span records are events with a ``duration_s`` field, emitted once when
the span closes — there is no open/close pairing to reassemble, which
keeps single-line consumers (``jq``, ``grep``) trivial.

Fork safety: worker processes forked from a tracing parent inherit the
open file descriptor.  The tracer records its owning PID and silently
drops writes from any other process, so a trace file is written by
exactly one process and never interleaves.  Worker telemetry travels as
metric snapshots through the sweep runner instead (see
:mod:`repro.obs.worker`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Union

#: Bump whenever the record envelope or an existing record type's fields
#: change shape; every record embeds it.
TRACE_SCHEMA_VERSION = 5


class Tracer:
    """Append-only JSONL trace writer owned by a single process.

    Args:
        path: trace file location (parent directories are created).
            Opened immediately; a ``trace.meta`` record is written first
            so even an otherwise-empty trace identifies its schema.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._file = open(self.path, "w", encoding="utf-8")
        self.records_written = 0
        self.emit("trace.meta", pid=self._pid)

    def emit(self, type_: str, **fields: Any) -> None:
        """Write one event record; silently dropped in forked children."""
        if os.getpid() != self._pid:
            return
        record: Dict[str, Any] = {
            "schema": TRACE_SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "type": type_,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=_jsonable)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self.records_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


def _jsonable(value: Any) -> Any:
    """Last-resort encoder: numpy scalars become numbers, the rest repr."""
    item = getattr(value, "item", None)
    if item is not None:
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(value)
