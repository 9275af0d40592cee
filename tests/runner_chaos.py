"""Deterministic fault injection for sweep workers.

The settlement rules in :mod:`repro.runner.sweep` exist to survive
worker exceptions and killed processes.  Testing those paths with real
OOM kills would be flaky; this module makes the faults *deterministic*
instead: :class:`ChaosWorker` wraps a real sweep worker and injects a
scripted fault — an exception or a hard ``os._exit`` process kill — for
chosen cells, on chosen attempts, and nothing else.  (Hangs need no
harness: a worker that sleeps on a chosen point does.)

Determinism has two parts:

* **which cells fault** is a pure function of the cell: either an
  explicit index list or a modulus test on the cell's position-derived
  seed (``seed_mod``), so the same grid faults the same way every run,
  at any ``jobs``;
* **which attempts fault** is tracked with ``O_CREAT | O_EXCL`` marker
  files in a shared ``state_dir``, the one attempt counter that survives
  both process-pool workers and workers that die mid-cell (a counter in
  worker memory would reset with the process that ``os._exit`` just
  killed).

A :class:`ChaosWorker` perturbs *execution only* — when it does run the
wrapped worker, the result is untouched.  It therefore advertises the
wrapped worker's checkpoint identity via ``checkpoint_token``, so cells
journaled during a chaotic run resume under the plain worker (this is
exactly the interrupted-sweep-resumes-bit-identical acceptance test).

``kill`` faults use ``os._exit``, which skips all cleanup — only ever
meaningful under ``jobs > 1``, where it simulates an OOM-killed pool
worker.  Injecting a kill into an inline run would take the parent
process with it, so :class:`ChaosWorker` refuses with
:class:`ChaosSetupError` when it detects it is running in the main
process.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.runner.checkpoint import worker_token
from repro.runner.sweep import GridCell, SweepWorker

LOGGER = logging.getLogger("repro.runner.chaos")

#: Exit status used by ``kill`` faults — distinctive in pool tracebacks.
KILL_EXIT_CODE = 87

FAULT_KINDS = ("error", "kill")


class ChaosError(RuntimeError):
    """The injected worker exception (``kind="error"``)."""


class ChaosSetupError(RuntimeError):
    """A fault plan that cannot be executed safely (e.g. inline kill)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    Attributes:
        kind: ``"error"`` (raise :class:`ChaosError`) or ``"kill"``
            (``os._exit`` the worker process).
        indices: cell indices to fault, or ``None`` to select by seed.
        seed_mod: ``(m, r)`` — fault cells whose seed satisfies
            ``seed % m == r`` (ignored for unseeded cells); a
            grid-position-deterministic selector that needs no knowledge
            of the grid size.
        times: inject on the first ``times`` attempts of each selected
            cell, then let the wrapped worker run (``times < 0`` means
            every attempt — a permanent fault).
    """

    kind: str
    indices: Optional[Tuple[int, ...]] = None
    seed_mod: Optional[Tuple[int, int]] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.indices is None and self.seed_mod is None:
            raise ValueError("FaultSpec needs indices or seed_mod to select cells")

    def selects(self, cell: GridCell) -> bool:
        """Whether this fault targets ``cell`` (pure function of the cell)."""
        if self.indices is not None and cell.index in self.indices:
            return True
        if self.seed_mod is not None and cell.seed is not None:
            modulus, remainder = self.seed_mod
            return cell.seed % modulus == remainder
        return False


class ChaosWorker:
    """Picklable wrapper injecting scripted faults around a sweep worker.

    Args:
        worker: the real worker; must itself be picklable for ``jobs > 1``.
        faults: the fault script, applied in order — the first fault that
            selects the cell *and* still has attempts left fires.
        state_dir: directory for cross-process attempt markers; one
            directory corresponds to one run's fault history, so tests
            use a fresh temporary directory per sweep.
    """

    def __init__(
        self,
        worker: SweepWorker,
        faults: Tuple[FaultSpec, ...],
        state_dir: Union[str, Path],
    ):
        self.worker = worker
        self.faults = tuple(faults)
        self.state_dir = Path(state_dir)
        # Execution-only perturbation: journal under the wrapped worker's
        # identity so chaotic runs and clean runs share checkpoints.
        self.checkpoint_token = worker_token(worker)

    def __call__(self, cell: GridCell, context: Any) -> Any:
        for position, fault in enumerate(self.faults):
            if not fault.selects(cell):
                continue
            attempt = self._claim_attempt(cell, position)
            if fault.times >= 0 and attempt > fault.times:
                continue
            self._inject(fault, cell, attempt)
        return self.worker(cell, context)

    def _claim_attempt(self, cell: GridCell, fault_position: int) -> int:
        """Atomically claim this execution's attempt number for a fault.

        Attempt ``k`` is claimed by exclusively creating marker file
        ``cell<i>-fault<p>-attempt<k>``; ``O_CREAT | O_EXCL`` makes the
        claim race-free across pool workers, and the files survive
        ``os._exit``, which is the whole point.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        attempt = 1
        while True:
            marker = self.state_dir / f"cell{cell.index}-fault{fault_position}-attempt{attempt}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt

    def _inject(self, fault: FaultSpec, cell: GridCell, attempt: int) -> None:
        LOGGER.debug(
            "injecting %s into cell %d (attempt %d)", fault.kind, cell.index, attempt
        )
        if fault.kind == "error":
            raise ChaosError(
                f"injected fault: cell {cell.index} attempt {attempt}"
            )
        # kill
        if multiprocessing.current_process().name == "MainProcess":
            raise ChaosSetupError(
                "refusing to os._exit the main process: kill faults are only "
                "meaningful under jobs > 1 (they simulate a dead pool worker)"
            )
        os._exit(KILL_EXIT_CODE)
