"""Parallel sweep execution over a (point × replication) grid.

Every sweep experiment in this repository is a grid of parameter points,
optionally replicated over independent seeds, with one pure worker call
per cell.  :class:`SweepRunner` owns that shape once: grid → checkpoint
hits → **one dispatch loop** → ordered results.

* **grid and seeds** — cells are enumerated points outer, replications
  inner; per-cell seeds come from ``SeedSequence(seed).spawn(...)`` (or
  an experiment's ``seed_fn``), so they depend only on grid position;
* **execution** — one loop submits cells to a stdlib executor and
  settles them as they finish: ``"process"`` (a
  :class:`~concurrent.futures.ProcessPoolExecutor`), ``"thread"``,
  ``"inline"`` (synchronous, no pickling requirement), or ``"auto"``
  (inline at ``jobs <= 1``, process otherwise).  The runner keeps its
  executor across :meth:`SweepRunner.run` calls until
  :meth:`SweepRunner.close`, so a command forks ``jobs`` workers once;
* **ordered collection** — results come back in grid order, so every
  executor, at any parallelism, is bit-identical for pure workers.

S&F is correct under loss because it sends and forgets: no
acknowledgement, no retransmission.  The runner takes the same stance
toward its own failures — **a cell runs once** — and writes each rule
below exactly once:

* **``on_error``** — a cell whose worker raises is settled at once:
  ``"raise"`` (default) fails fast with :class:`SweepError`, ``"skip"``
  records a :class:`FailureReport` and leaves ``None`` in its slot.  A
  cell is a pure function of its grid position; it would raise again.
* **per-cell timeouts** (process executor only) — a cell running longer
  than ``cell_timeout`` fails with :class:`CellTimeout`; the pool is
  killed with its hung worker and innocent in-flight cells are requeued.
* **crash blame** — when a worker process dies, completed results are
  kept and every cell that was in flight re-runs once, alone: one that
  crashes its pool again is the culprit and fails per policy, so an
  innocent neighbour is never blamed.  Only crashes under a batch count
  against ``MAX_POOL_REBUILDS``; a solo re-run happens once per cell.
* **checkpoint/resume** — with a :class:`repro.runner.CheckpointStore`,
  every completed cell is journaled as it lands, and a re-run of the
  same grid loads it instead of recomputing: bit-identical resume.

Workers on the process executor must be picklable (module-level
callables), as must their arguments.
"""

from __future__ import annotations

import logging
import math
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.obs.profile import phase
from repro.obs.worker import MeteredResult, MeteredWorker
from repro.runner.checkpoint import CheckpointStore

__all__ = [
    "GridCell",
    "FailureReport",
    "SweepStats",
    "SweepError",
    "CellTimeout",
    "PoolCrashError",
    "SweepRunner",
    "default_jobs",
    "derive_seeds",
    "ON_ERROR_POLICIES",
    "EXECUTORS",
]

LOGGER = logging.getLogger("repro.runner")

#: Signature of a sweep worker: ``worker(cell, context) -> result``.
SweepWorker = Callable[["GridCell", Any], Any]

#: Valid ``on_error`` policies.
ON_ERROR_POLICIES = ("raise", "skip")

#: Valid ``executor`` names.
EXECUTORS = ("auto", "inline", "process", "thread")

#: Crashes of a batch of cells survived per run before :class:`PoolCrashError`.
MAX_POOL_REBUILDS = 5


@dataclass(frozen=True)
class GridCell:
    """One unit of sweep work: a parameter point × replication slot.

    Attributes:
        index: flat position in grid order — results are collected here.
        point: the parameter point (any picklable value).
        replication: replication number in ``range(replications)``.
        seed: derived integer seed for this cell (``None`` when the sweep
            is unseeded).
    """

    index: int
    point: Any
    replication: int
    seed: Optional[int]


@dataclass(frozen=True)
class FailureReport:
    """Structured record of a cell given up on under ``on_error="skip"``.

    Attributes:
        cell: the failing cell.
        error: ``repr`` of the failure — the worker's exception, a
            :class:`CellTimeout`, or the pool crash it caused alone.
        wall_time: parent-observed seconds of the failed execution
            (includes pool queueing).
    """

    cell: GridCell
    error: str
    wall_time: float


@dataclass
class SweepStats:
    """Execution counters for the most recent :meth:`SweepRunner.run`.

    ``backend`` names the executor that ran the sweep (``inline``,
    ``process`` or ``thread``).
    """

    total: int = 0
    completed: int = 0
    resumed: int = 0
    skipped: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    backend: str = ""


class SweepError(RuntimeError):
    """A worker failed terminally; carries the failing cell for diagnosis."""

    def __init__(self, cell: GridCell, cause: BaseException):
        super().__init__(
            f"sweep worker failed at point={cell.point!r} "
            f"replication={cell.replication} (cell {cell.index}): {cause!r}"
        )
        self.cell = cell
        self.cause = cause


class CellTimeout(RuntimeError):
    """A cell exceeded ``cell_timeout``; raised parent-side, never in the worker."""


class PoolCrashError(RuntimeError):
    """Pool crashes under a batch of cells exceeded ``MAX_POOL_REBUILDS``."""


def default_jobs() -> int:
    """A reasonable ``jobs`` for "use the machine": CPU count capped at 8
    (beyond 8 the per-process import and pickling overhead beats the
    marginal speedup for this repository's cell sizes)."""
    return min(os.cpu_count() or 1, 8)


def derive_seeds(
    seed: Optional[int], count: int
) -> List[Optional[int]]:
    """``count`` independent integer seeds from ``seed`` via ``SeedSequence``.

    Position-determined: cell ``i`` always receives the same seed for a
    given base seed, whatever the execution order or worker count.
    ``None`` propagates (unseeded sweeps stay unseeded).
    """
    if seed is None:
        return [None] * count
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(2, np.uint64)[0]) for child in children]


class _InlineExecutor(Executor):
    """Runs each call inside ``submit``, in the calling thread.

    The future comes back already settled, so the dispatch loop treats
    an in-process serial sweep exactly like a pooled one.  Only
    ``Exception`` is captured; ``KeyboardInterrupt`` propagates.
    """

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _open_executor(kind: str, max_workers: int) -> Executor:
    if kind == "process":
        return ProcessPoolExecutor(max_workers=max_workers)
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=max_workers)
    return _InlineExecutor()


def _phased(worker: SweepWorker, cell: GridCell, context: Any) -> Any:
    """An in-process cell call, timed as ``phase.cell_run``."""
    with phase("cell_run"):
        return worker(cell, context)


#: In-flight submissions: ``future -> (cell, submitted at)`` (monotonic).
_InFlight = Dict[Future, Tuple[GridCell, float]]


class SweepRunner:
    """Run a sweep worker over a parameter grid, on one dispatch loop.

    Args:
        jobs: worker parallelism; ``None`` or ``<= 1`` selects the inline
            executor under ``executor="auto"``.  (Use :func:`default_jobs`
            for "all the machine".)
        on_error: what a failed cell does — ``"raise"`` fails fast with
            :class:`SweepError`; ``"skip"`` records a
            :class:`FailureReport` and leaves ``None`` in that cell's
            slot.  A cell runs once, bar one solo re-run after a worker
            process died while it was in flight.
        cell_timeout: wall-clock budget per cell execution, a finite
            positive number of seconds.  Enforced only on the process
            executor (killing the pool kills a hung worker; the cell fails
            per ``on_error``); the others ignore it with a warning, as
            nothing can preempt the call.
        checkpoint: optional :class:`repro.runner.CheckpointStore`; every
            completed cell is journaled and journaled cells are loaded
            instead of executed on re-runs.
        executor: ``"auto"`` (default; inline at ``jobs <= 1``, process
            otherwise), ``"inline"``, ``"process"`` or ``"thread"``.

    After :meth:`run`, :attr:`last_failures` holds the run's
    :class:`FailureReport` list and :attr:`last_stats` its
    :class:`SweepStats`.

    The executor is opened by the first :meth:`run` that has a cell to
    execute and kept for the next one; :meth:`close` — or using the
    runner as a context manager — waits for its workers to exit.  A
    runner dropped without :meth:`close` leaks nothing: the stdlib
    executors shut their workers down when collected.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        on_error: str = "raise",
        cell_timeout: Optional[float] = None,
        checkpoint: Optional[CheckpointStore] = None,
        executor: str = "auto",
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        if cell_timeout is not None and not (
            math.isfinite(cell_timeout) and cell_timeout > 0
        ):
            raise ValueError(
                f"cell_timeout must be a finite positive number of seconds, "
                f"got {cell_timeout}"
            )
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.jobs = 1 if jobs is None else max(1, int(jobs))
        self.on_error = on_error
        self.cell_timeout = cell_timeout
        self.checkpoint = checkpoint
        self.executor = executor
        if executor == "auto":
            executor = "inline" if self.jobs <= 1 else "process"
        self._kind = executor
        self._pool: Optional[Executor] = None
        self.last_failures: List[FailureReport] = []
        self.last_stats = SweepStats()
        # Worker-process metric snapshots, keyed by cell index; merged into
        # the parent registry in index order at the end of run() so the
        # aggregate is deterministic at any jobs count.
        self._worker_metrics: Dict[int, Dict[str, Any]] = {}

    def close(self) -> None:
        """Shut the executor down and wait for its workers to exit.

        Idempotent; a later :meth:`run` opens a fresh executor.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _kill_pool(self) -> None:
        """Drop the executor without waiting on in-flight work and kill its
        processes (one of them may be hung past its deadline); the next
        submission opens a fresh one."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # shutdown() forgets the pool's processes, so list them first.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()

    def run(
        self,
        worker: SweepWorker,
        points: Sequence[Any],
        *,
        replications: int = 1,
        seed: Optional[int] = None,
        seed_fn: Optional[Callable[[Any, int], Optional[int]]] = None,
        context: Any = None,
    ) -> List[Any]:
        """Execute ``worker`` over every (point × replication) cell.

        ``seed_fn(point, replication)`` overrides the default
        ``SeedSequence.spawn`` derivation — it runs in the parent, so
        closures are fine even with ``jobs > 1``.  ``context`` is passed
        verbatim to every worker call (shared configuration).

        Returns results in grid order (points outer, replications inner);
        cells skipped under ``on_error="skip"`` hold ``None`` and are
        described in :attr:`last_failures`.  Raises :class:`SweepError`
        when a cell fails under ``"raise"``, and :class:`PoolCrashError`
        when worker processes crash under a batch more than
        ``MAX_POOL_REBUILDS`` times.
        """
        if replications <= 0:
            raise ValueError(f"replications must be positive, got {replications}")
        kind = self._kind
        cells = self._build_cells(points, replications, seed, seed_fn)
        self.last_failures = []
        self.last_stats = SweepStats(total=len(cells), backend=kind)
        self._worker_metrics = {}
        if not cells:
            return []
        tel = get_telemetry()
        start = time.perf_counter()
        tel.event(
            "sweep.start",
            cells=len(cells),
            points=len(points),
            replications=replications,
            jobs=self.jobs,
            on_error=self.on_error,
            executor=kind,
        )
        LOGGER.debug(
            "sweep start: %d points x %d replications, jobs=%d, on_error=%s, "
            "executor=%s",
            len(points), replications, self.jobs, self.on_error, kind,
        )
        results: List[Any] = [None] * len(cells)
        keys: Dict[int, str] = {}
        to_run = self._resume_from_checkpoint(worker, cells, context, results, keys)
        if self.last_stats.resumed:
            LOGGER.info(
                "resumed %d/%d cells from checkpoint",
                self.last_stats.resumed, len(cells),
            )
        if to_run:
            self._dispatch(worker, to_run, context, results, keys)
        elapsed = time.perf_counter() - start
        self._finish_telemetry(tel, elapsed)
        LOGGER.debug(
            "sweep done: %d cells (%d resumed, %d skipped) in %.3fs",
            len(cells), self.last_stats.resumed, self.last_stats.skipped, elapsed,
        )
        return results

    def progress_snapshot(self) -> Dict[str, Any]:
        """A JSON-safe view of the current run's progress.

        Safe to call from another thread while :meth:`run` executes (the
        live ``/progress`` endpoint does exactly that): every field is a
        scalar read, so the snapshot is only ever momentarily stale,
        never torn across a single counter.
        """
        stats = self.last_stats
        return {
            "total": stats.total,
            "done": stats.resumed + stats.completed + stats.skipped,
            "completed": stats.completed,
            "resumed": stats.resumed,
            "skipped": stats.skipped,
            "timeouts": stats.timeouts,
            "pool_rebuilds": stats.pool_rebuilds,
            "backend": stats.backend,
            "failures": len(self.last_failures),
        }

    def _finish_telemetry(self, tel, elapsed: float) -> None:
        """Merge worker snapshots and mirror the run's stats (end of run)."""
        stats = self.last_stats
        if tel.metrics_on:
            # Index order, not completion order: merge_snapshot arithmetic
            # is commutative for counters/histograms but gauges are
            # last-writer-wins, so a fixed order keeps them deterministic.
            for index in sorted(self._worker_metrics):
                tel.registry.merge_snapshot(self._worker_metrics[index])
            tel.inc("sweep.cells", stats.total)
            tel.inc("sweep.completed", stats.completed)
            tel.inc("sweep.resumed", stats.resumed)
            tel.inc("sweep.skipped", stats.skipped)
            tel.inc("sweep.timeouts", stats.timeouts)
            tel.inc("sweep.pool_rebuilds", stats.pool_rebuilds)
        tel.event(
            "sweep.end",
            cells=stats.total,
            completed=stats.completed,
            resumed=stats.resumed,
            skipped=stats.skipped,
            timeouts=stats.timeouts,
            pool_rebuilds=stats.pool_rebuilds,
            duration_s=round(elapsed, 6),
        )

    @staticmethod
    def _emit_cell_end(cell: GridCell, status: str, elapsed: float) -> None:
        get_telemetry().event(
            "cell.end",
            index=cell.index,
            status=status,
            duration_s=round(elapsed, 6),
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _build_cells(
        points: Sequence[Any],
        replications: int,
        seed: Optional[int],
        seed_fn: Optional[Callable[[Any, int], Optional[int]]],
    ) -> List[GridCell]:
        total = len(points) * replications
        if seed_fn is None:
            seeds = derive_seeds(seed, total)
        else:
            seeds = [
                seed_fn(point, replication)
                for point in points
                for replication in range(replications)
            ]
        return [
            GridCell(
                index=i * replications + r,
                point=point,
                replication=r,
                seed=seeds[i * replications + r],
            )
            for i, point in enumerate(points)
            for r in range(replications)
        ]

    def _resume_from_checkpoint(
        self,
        worker: SweepWorker,
        cells: List[GridCell],
        context: Any,
        results: List[Any],
        keys: Dict[int, str],
    ) -> List[GridCell]:
        """Load journaled cells; return the cells that still need running."""
        if self.checkpoint is None:
            return list(cells)
        tel = get_telemetry()
        to_run: List[GridCell] = []
        for cell in cells:
            key = self.checkpoint.cell_key(worker, cell, context)
            keys[cell.index] = key
            hit, value = self.checkpoint.load(key)
            if not hit:
                to_run.append(cell)
                continue
            results[cell.index] = value
            self.last_stats.resumed += 1
            if tel.tracing_on:
                tel.event("checkpoint.hit", index=cell.index)
                self._emit_cell_end(cell, "resumed", 0.0)
        return to_run

    # -- the dispatch loop ---------------------------------------------

    def _dispatch(
        self,
        worker: SweepWorker,
        cells: List[GridCell],
        context: Any,
        results: List[Any],
        keys: Dict[int, str],
    ) -> None:
        """Run ``cells`` on the runner's executor, settling each per policy.

        One loop for every executor: submit up to ``width`` cells (one
        suspect at a time after a crash), wait for the first to finish or
        a deadline, settle what finished.  Only the process pool ships
        worker metric snapshots and enforces deadlines.  The executor
        outlives the call unless a crash or deadline replaces it or an
        exception escapes.
        """
        kind = self._kind
        pooled = kind == "process"
        deadline = self.cell_timeout if pooled else None
        if self.cell_timeout is not None and not pooled:
            LOGGER.warning(
                "cell_timeout is not enforced by the %s executor; "
                "running without deadlines", kind,
            )
        # Outstanding submissions are capped at the worker count: in-flight
        # cells are then (almost) the running set, which keeps the suspect
        # set small when the pool crashes.  The inline executor runs a
        # cell inside submit(), so a cap of one keeps it serial — a
        # fail-fast error stops the sweep before any later cell runs.
        width = 1 if kind == "inline" else min(self.jobs, len(cells))
        tel = get_telemetry()
        if not pooled:
            call: SweepWorker = partial(_phased, worker)
        elif tel.metrics_on:
            # The parent registry is unreachable from a worker process;
            # ship a snapshot back and merge it deterministically later.
            call = MeteredWorker(worker)
        else:
            call = worker
        pending: Deque[GridCell] = deque(cells)
        # Cells in flight when a worker died: each re-runs once, alone.
        suspects: Deque[GridCell] = deque()
        suspected: Set[int] = set()
        inflight: _InFlight = {}
        batch_crashes = 0
        try:
            while pending or suspects or inflight:
                # A suspect re-runs alone: nothing is submitted beside it.
                alone = suspects or suspected & {c.index for c, _ in inflight.values()}
                queue, limit = (suspects, 1) if alone else (pending, width)
                try:
                    while queue and len(inflight) < limit:
                        if self._pool is None:
                            self._pool = _open_executor(kind, self.jobs)
                        started = time.monotonic()
                        future = self._pool.submit(call, queue[0], context)
                        inflight[future] = (queue.popleft(), started)
                    finished, _ = wait(
                        inflight,
                        timeout=self._wait_timeout(deadline, inflight),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        self._settle(future, inflight, results, keys)
                    rebuild = deadline is not None and self._expire_overdue(
                        deadline, inflight, pending
                    )
                except BrokenExecutor as crash:
                    # A worker process died: the pool fails every in-flight
                    # future with this and refuses new submissions.  The
                    # results that landed first are kept, whatever order
                    # wait() listed the futures in.
                    for future in [
                        future for future in inflight if future.done()
                        and not isinstance(future.exception(), BrokenExecutor)
                    ]:
                        self._settle(future, inflight, results, keys)
                    batch_crashes += self._blame(
                        crash, inflight, suspects, suspected
                    )
                    if batch_crashes > MAX_POOL_REBUILDS:
                        raise PoolCrashError(
                            f"process pool crashed {batch_crashes} times "
                            f"under a batch (MAX_POOL_REBUILDS="
                            f"{MAX_POOL_REBUILDS}); last crash: {crash!r}"
                        ) from crash
                    rebuild = True
                if rebuild:
                    # Killing the old pool is what kills a hung worker;
                    # the next submission opens its replacement.
                    self._kill_pool()
        except BaseException:
            self._kill_pool()
            raise

    def _settle(
        self,
        future: Future,
        inflight: _InFlight,
        results: List[Any],
        keys: Dict[int, str],
    ) -> None:
        """Settle one finished future: record its result, or fail the cell
        per policy.  A dead pool's ``BrokenExecutor`` propagates, leaving
        the cell in ``inflight`` for the crash handler."""
        try:
            result = future.result()
        except BrokenExecutor:
            raise
        except Exception as exc:
            self._fail(*inflight.pop(future), exc)
            return
        cell, started = inflight.pop(future)
        if isinstance(result, MeteredResult):
            self._worker_metrics[cell.index] = result.metrics
            result = result.value
        results[cell.index] = result
        self.last_stats.completed += 1
        if self.checkpoint is not None:
            self.checkpoint.store(keys[cell.index], result)
        self._emit_cell_end(cell, "ok", time.monotonic() - started)

    @staticmethod
    def _wait_timeout(deadline: Optional[float], inflight: _InFlight) -> Optional[float]:
        """How long ``wait`` may block before the oldest cell falls due."""
        if deadline is None:
            return None
        oldest = min(started for _, started in inflight.values())
        return max(0.0, oldest + deadline - time.monotonic()) + 0.01

    def _blame(
        self,
        crash: BaseException,
        inflight: _InFlight,
        suspects: Deque[GridCell],
        suspected: Set[int],
    ) -> bool:
        """Settle the cells a dead worker took with it; True when it died
        under a batch (which counts against ``MAX_POOL_REBUILDS``).

        A lost cell already suspected was running alone: it is the
        culprit and fails per policy.  Otherwise every lost cell becomes
        a suspect, queued to re-run alone in grid order.
        """
        lost = sorted(inflight.values(), key=lambda entry: entry[0].index)
        inflight.clear()
        self.last_stats.pool_rebuilds += 1
        get_telemetry().event("pool.rebuild", reason="crash")
        culprits = [entry for entry in lost if entry[0].index in suspected]
        if culprits:
            self._fail(*culprits[0], crash)
            return False
        LOGGER.warning(
            "worker process died (%r); rebuilding pool, re-running %d "
            "in-flight cell(s) alone; %d completed result(s) kept",
            crash, len(lost), self.last_stats.completed,
        )
        suspected.update(cell.index for cell, _ in lost)
        suspects.extend(cell for cell, _ in lost)
        return True

    def _expire_overdue(
        self, deadline: float, inflight: _InFlight, pending: Deque[GridCell]
    ) -> bool:
        """Fail every in-flight cell over its deadline; True if any was.

        A running task cannot be cancelled, so the caller then rebuilds
        the pool: the overdue cells fail with :class:`CellTimeout` per
        policy, while the other in-flight cells are requeued.
        """
        now = time.monotonic()
        overdue = {
            cell.index: now - started
            for future, (cell, started) in inflight.items()
            if not future.done() and now - started >= deadline
        }
        if not overdue:
            return False
        self.last_stats.timeouts += len(overdue)
        tel = get_telemetry()
        if tel.tracing_on:
            tel.event("pool.rebuild", reason="timeout")
            for index, elapsed in sorted(overdue.items()):
                tel.event("cell.timeout", index=index, elapsed_s=round(elapsed, 6))
        LOGGER.warning(
            "%d cell(s) exceeded cell_timeout=%.3gs; killing the pool "
            "and requeueing %d innocent in-flight cell(s)",
            len(overdue), deadline, len(inflight) - len(overdue),
        )
        for cell, started in inflight.values():
            if cell.index not in overdue:
                pending.append(cell)
                continue
            self._fail(cell, started, CellTimeout(
                f"cell {cell.index} (point={cell.point!r}) exceeded "
                f"cell_timeout={deadline}s"
            ))
        inflight.clear()
        return True

    def _fail(self, cell: GridCell, started: float, exc: BaseException) -> None:
        """Settle a failed cell per policy: raise :class:`SweepError`
        under ``"raise"``, else record a :class:`FailureReport`."""
        if self.on_error == "raise":
            raise SweepError(cell, exc) from exc
        elapsed = time.monotonic() - started
        self.last_failures.append(FailureReport(cell, repr(exc), elapsed))
        self.last_stats.skipped += 1
        self._emit_cell_end(cell, "skipped", elapsed)
        LOGGER.warning(
            "skipping cell %d (point=%r, replication=%d): %r",
            cell.index, cell.point, cell.replication, exc,
        )
