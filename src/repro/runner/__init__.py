"""Fault-tolerant parallel sweep-execution subsystem.

* :mod:`repro.runner.sweep` — :class:`SweepRunner`: deterministic
  (point × replication) grids with position-derived seeds, run by one
  dispatch loop over a stdlib executor (``inline`` / ``process`` /
  ``thread`` — bit-identical for pure workers) with ordered result
  collection; a cell runs once, settled by ``on_error`` (``raise`` /
  ``skip`` + :class:`FailureReport`).  On the process executor: per-cell
  timeouts, and crash blame — after a BrokenProcessPool the in-flight
  cells re-run once, alone, and only one that crashes again fails.
* :mod:`repro.runner.checkpoint` — :class:`CheckpointStore`: an opt-in
  atomic on-disk journal of completed cells, so interrupted sweeps
  resume bit-identically.  Entries are content-addressed, so nothing
  maintains the directory: a stale entry is never read.

Every registered experiment (see :mod:`repro.experiments.registry`)
executes its point grid through this layer — ``registry.execute`` is
grid → :meth:`SweepRunner.run` → aggregate — so all of them accept a
``jobs``/``runner=`` argument and inherit the CLI's failure knobs
(``--jobs``, ``--on-error``, ``--cell-timeout``, ``--checkpoint-dir``).
"""

from repro.runner.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    worker_token,
)
from repro.runner.sweep import (
    CellTimeout,
    FailureReport,
    GridCell,
    PoolCrashError,
    SweepError,
    SweepRunner,
    SweepStats,
    default_jobs,
    derive_seeds,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CellTimeout",
    "CheckpointStore",
    "FailureReport",
    "GridCell",
    "PoolCrashError",
    "SweepError",
    "SweepRunner",
    "SweepStats",
    "default_jobs",
    "derive_seeds",
    "worker_token",
]
