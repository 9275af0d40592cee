"""Fault-tolerant parallel sweep execution over a (point × replication) grid.

Every sweep experiment in this repository has the same shape — a grid of
parameter points, optionally replicated over independent seeds, with one
pure worker call per cell.  :class:`SweepRunner` owns that shape once:
grid → checkpoint hits → **one dispatch loop** → ordered results.

* **grid construction** — cells are enumerated in deterministic order
  (points outer, replications inner) and each carries its flat index;
* **seed derivation** — per-cell seeds come from
  ``numpy.random.SeedSequence(seed).spawn(...)`` by default, so they
  depend only on the cell's grid position, never on scheduling; an
  experiment with its own derivation (e.g. ``seed + replication``) passes
  ``seed_fn`` instead;
* **execution** — one loop submits cells to a stdlib
  :class:`concurrent.futures.Executor` and settles them as they finish.
  ``executor`` names which one: ``"process"``
  (:class:`~concurrent.futures.ProcessPoolExecutor`), ``"thread"``
  (:class:`~concurrent.futures.ThreadPoolExecutor`), ``"inline"`` (a
  synchronous in-process executor: no pickling requirement), or
  ``"auto"`` (inline at ``jobs <= 1``, process otherwise).  The runner
  owns the executor: the first cell that has to run opens it, every
  later :meth:`SweepRunner.run` reuses it, and :meth:`SweepRunner.close`
  (or leaving ``with SweepRunner(...) as runner:``) joins its workers —
  a command that runs thirteen sweeps forks ``jobs`` workers once;
* **ordered collection** — results are returned in grid order regardless
  of completion order, which is what makes every executor, at any
  parallelism, bit-identical for pure workers.

The paper this repository reproduces is about correctness *under loss*;
the runner applies the same stance to its own execution, and because
there is one loop every policy below is written exactly once:

* **retries with exponential backoff** — a failed cell is re-executed up
  to ``max_retries`` times, delayed ``backoff_base · BACKOFF_FACTOR^k``
  seconds (capped at ``BACKOFF_MAX``); it waits out the delay in the
  loop's retry heap while other cells run.  Because a pure worker's
  result is a function of its cell alone, a retried cell's result is
  bit-identical to a first-try result.
* **an ``on_error`` policy** — ``"raise"`` (default, fail fast),
  ``"retry"`` (retry, then raise), or ``"skip"`` (retry, then record a
  :class:`FailureReport` and yield ``None`` for that cell instead of
  poisoning the whole grid).
* **per-cell timeouts** (process executor only — nothing else can kill a
  running call) — a cell running longer than ``cell_timeout`` seconds is
  treated as failed: the pool is rebuilt (killing the hung worker),
  innocent in-flight cells are requeued uncharged, and the overdue cell
  is retried/skipped/raised per policy.
* **BrokenProcessPool recovery** — an OOM-killed or crashed worker
  process does not discard completed results: the pool is rebuilt (at
  most ``MAX_POOL_REBUILDS`` times per run) and in-flight cells are
  requeued, each at most ``max_retries`` times, since the crashed cell
  cannot be told apart from its in-flight neighbors.
* **checkpoint/resume** — with a :class:`repro.runner.CheckpointStore`,
  every completed cell is journaled atomically as it lands; a re-run of
  the same grid loads journaled cells instead of recomputing them, so an
  interrupted sweep resumes where it died with bit-identical output.

Workers submitted to the process executor must be module-level callables
(or picklable callable objects) and their arguments picklable — the
standard multiprocessing constraint.
"""

from __future__ import annotations

import heapq
import logging
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
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.obs.profile import phase
from repro.obs.worker import MeteredResult, MeteredWorker
from repro.runner.checkpoint import CheckpointStore, worker_token

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
ON_ERROR_POLICIES = ("raise", "retry", "skip")

#: Valid ``executor`` names.
EXECUTORS = ("auto", "inline", "process", "thread")

#: Retry ``k`` waits ``backoff_base * BACKOFF_FACTOR**(k-1)`` seconds ...
BACKOFF_FACTOR = 2.0

#: ... capped at this many seconds.
BACKOFF_MAX = 30.0

#: Worker-process crashes survived per run before :class:`PoolCrashError`.
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
        attempts: executions charged to the cell (worker raises, timeouts,
            and pool crashes while it was in flight).
        errors: ``repr`` of each failure, in order.
        wall_time: parent-observed seconds spent on the cell across all
            attempts (includes pool queueing, excludes backoff waits).
    """

    cell: GridCell
    attempts: int
    errors: Tuple[str, ...]
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
    retries: int = 0
    skipped: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    backend: str = ""


class SweepError(RuntimeError):
    """A worker failed terminally; carries the failing cell for diagnosis."""

    def __init__(self, cell: GridCell, cause: BaseException, attempts: int = 1):
        super().__init__(
            f"sweep worker failed at point={cell.point!r} "
            f"replication={cell.replication} (cell {cell.index}) "
            f"after {attempts} attempt(s): {cause!r}"
        )
        self.cell = cell
        self.cause = cause
        self.attempts = attempts


class CellTimeout(RuntimeError):
    """A cell exceeded ``cell_timeout``; raised parent-side, never in the worker."""


class PoolCrashError(RuntimeError):
    """The process pool crashed more than ``MAX_POOL_REBUILDS`` times."""


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


class _CellState:
    """Per-cell failure bookkeeping (attempts, crashes, errors, wall time)."""

    __slots__ = ("attempts", "crashes", "errors", "elapsed", "submitted")

    def __init__(self) -> None:
        self.attempts = 0  # worker raises + timeouts
        self.crashes = 0   # pool crashes while in flight (blame uncertain)
        self.errors: List[str] = []
        self.elapsed = 0.0
        self.submitted = 0.0

    def charged(self) -> int:
        return self.attempts + self.crashes


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


#: The retry heap: ``(ready_at, cell index, cell)``.
_RetryHeap = List[Tuple[float, int, GridCell]]


class SweepRunner:
    """Run a sweep worker over a parameter grid, on one dispatch loop.

    Args:
        jobs: worker parallelism; ``None`` or ``<= 1`` selects the inline
            executor under ``executor="auto"``.  (Use :func:`default_jobs`
            for "all the machine".)
        on_error: ``"raise"`` fails fast on the first worker error;
            ``"retry"`` retries each failing cell up to ``max_retries``
            times and raises if it still fails; ``"skip"`` retries
            likewise but then records a :class:`FailureReport` and leaves
            ``None`` in that cell's slot.
        max_retries: extra executions granted per cell after its first
            failure (total attempts = ``max_retries + 1``).  A cell in
            flight during a pool crash is requeued under the same budget;
            beyond it the cell is handled per ``on_error``.
        backoff_base: delay before the first retry, in seconds; retry
            ``k`` waits ``backoff_base * BACKOFF_FACTOR**(k-1)``, capped
            at ``BACKOFF_MAX``.
        cell_timeout: wall-clock budget per cell execution, in seconds.
            Enforced only on the process executor — a hung worker is
            killed by rebuilding the pool and the cell is handled per
            ``on_error``; the others ignore the setting with a warning
            (nothing can preempt the call).
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
        max_retries: int = 2,
        backoff_base: float = 0.1,
        cell_timeout: Optional[float] = None,
        checkpoint: Optional[CheckpointStore] = None,
        executor: str = "auto",
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.jobs = 1 if jobs is None else max(1, int(jobs))
        self.on_error = on_error
        self.max_retries = max_retries
        self.backoff_base = max(0.0, backoff_base)
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
        self._worker_token: Optional[str] = None

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
        when a cell fails terminally under ``"raise"``/``"retry"``, and
        :class:`PoolCrashError` when worker processes crash more than
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
            "retries": stats.retries,
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
            tel.inc("sweep.retries", stats.retries)
            tel.inc("sweep.skipped", stats.skipped)
            tel.inc("sweep.timeouts", stats.timeouts)
            tel.inc("sweep.pool_rebuilds", stats.pool_rebuilds)
        tel.event(
            "sweep.end",
            cells=stats.total,
            completed=stats.completed,
            resumed=stats.resumed,
            retries=stats.retries,
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
        self._worker_token = worker_token(worker)
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

        One loop for every executor: submit up to ``width`` cells, wait
        for the first to finish (or for a deadline or retry to fall
        due), settle what finished.  Whether the executor is the process
        pool is the single fact that turns on metric snapshots from the
        workers and per-cell deadlines.  The executor outlives the call
        unless a crash or deadline replaces it or an exception escapes.
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
        # cells are then (almost) the running set, which keeps the blame
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
        waiting: _RetryHeap = []
        states = {cell.index: _CellState() for cell in cells}
        inflight: Dict[Future, GridCell] = {}
        try:
            while pending or waiting or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    pending.append(heapq.heappop(waiting)[2])
                try:
                    while pending and len(inflight) < width:
                        if self._pool is None:
                            self._pool = _open_executor(kind, self.jobs)
                        cell = pending[0]
                        states[cell.index].submitted = time.monotonic()
                        inflight[self._pool.submit(call, cell, context)] = cell
                        pending.popleft()
                    if not inflight:
                        # Everything left is waiting out a retry backoff.
                        time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                        continue
                    finished, _ = wait(
                        inflight,
                        timeout=self._wait_timeout(
                            deadline, waiting, inflight, states
                        ),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        self._settle(future, inflight, states, waiting, results, keys)
                    rebuild = deadline is not None and self._expire_overdue(
                        deadline, inflight, states, pending, waiting
                    )
                except BrokenExecutor as crash:
                    # A worker process died: the pool fails every in-flight
                    # future with this and refuses new submissions.
                    self.last_stats.pool_rebuilds += 1
                    rebuilds = self.last_stats.pool_rebuilds
                    tel.event("pool.rebuild", reason="crash")
                    LOGGER.warning(
                        "worker process died (%r); rebuilding pool (%d/%d), "
                        "requeueing %d in-flight cell(s); %d completed result(s) kept",
                        crash, rebuilds, MAX_POOL_REBUILDS, len(inflight),
                        self.last_stats.completed,
                    )
                    if rebuilds > MAX_POOL_REBUILDS:
                        raise PoolCrashError(
                            f"process pool crashed {rebuilds} times "
                            f"(MAX_POOL_REBUILDS={MAX_POOL_REBUILDS}); "
                            f"last crash: {crash!r}"
                        ) from crash
                    self._settle_crashed(crash, inflight, states, pending)
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
        inflight: Dict[Future, GridCell],
        states: Dict[int, _CellState],
        waiting: _RetryHeap,
        results: List[Any],
        keys: Dict[int, str],
    ) -> None:
        """Settle one finished future: record its result, or retry/skip/
        raise per policy.  A dead pool's ``BrokenExecutor`` propagates,
        leaving the cell in ``inflight`` for the crash handler."""
        failure: Optional[Exception] = None
        try:
            result = future.result()
        except BrokenExecutor:
            raise
        except Exception as exc:
            failure = exc
        cell = inflight.pop(future)
        state = states[cell.index]
        state.elapsed += time.monotonic() - state.submitted
        if failure is not None:
            self._handle_failure(cell, failure, state, waiting)
            return
        if isinstance(result, MeteredResult):
            self._worker_metrics[cell.index] = result.metrics
            result = result.value
        self._record_success(cell, result, results, keys)
        self._emit_cell_end(cell, "ok", state.elapsed)

    @staticmethod
    def _wait_timeout(
        deadline: Optional[float],
        waiting: _RetryHeap,
        inflight: Dict[Future, GridCell],
        states: Dict[int, _CellState],
    ) -> Optional[float]:
        """How long ``wait`` may block before a deadline or retry is due."""
        due = []
        if deadline is not None:
            due.append(
                min(states[cell.index].submitted for cell in inflight.values())
                + deadline
            )
        if waiting:
            due.append(waiting[0][0])
        if not due:
            return None
        return max(0.0, min(due) - time.monotonic()) + 0.01

    def _settle_crashed(
        self,
        crash: BaseException,
        inflight: Dict[Future, GridCell],
        states: Dict[int, _CellState],
        pending: Deque[GridCell],
    ) -> None:
        """Requeue or settle every cell that was in flight during a crash.

        The crashed cell cannot be told apart from its in-flight
        neighbors, so each gets a crash charge; a cell over its
        ``max_retries`` budget is settled per ``on_error``.
        """
        now = time.monotonic()
        for cell in inflight.values():
            state = states[cell.index]
            state.crashes += 1
            state.elapsed += now - state.submitted
            state.errors.append(repr(crash))
            if state.crashes <= self.max_retries:
                pending.append(cell)
            elif self.on_error == "skip":
                self._skip(cell, state)
            else:
                raise SweepError(cell, crash, attempts=state.charged()) from crash
        inflight.clear()

    def _expire_overdue(
        self,
        deadline: float,
        inflight: Dict[Future, GridCell],
        states: Dict[int, _CellState],
        pending: Deque[GridCell],
        waiting: _RetryHeap,
    ) -> bool:
        """Fail every in-flight cell over its deadline; True if any was.

        A running task cannot be cancelled, so the caller then rebuilds
        the pool: the overdue cells are charged a timeout attempt and
        retried/skipped/raised per policy, while the other in-flight
        cells are requeued uncharged.
        """
        now = time.monotonic()
        overdue = {
            cell.index
            for future, cell in inflight.items()
            if not future.done() and now - states[cell.index].submitted >= deadline
        }
        if not overdue:
            return False
        self.last_stats.timeouts += len(overdue)
        tel = get_telemetry()
        if tel.tracing_on:
            tel.event("pool.rebuild", reason="timeout")
            for index in sorted(overdue):
                tel.event(
                    "cell.timeout",
                    index=index,
                    elapsed_s=round(now - states[index].submitted, 6),
                )
        LOGGER.warning(
            "%d cell(s) exceeded cell_timeout=%.3gs; killing the pool "
            "and requeueing %d innocent in-flight cell(s)",
            len(overdue), deadline, len(inflight) - len(overdue),
        )
        for cell in inflight.values():
            state = states[cell.index]
            state.elapsed += now - state.submitted
            if cell.index not in overdue:
                pending.append(cell)
                continue
            exc = CellTimeout(
                f"cell {cell.index} (point={cell.point!r}) exceeded "
                f"cell_timeout={deadline}s"
            )
            self._handle_failure(cell, exc, state, waiting)
        inflight.clear()
        return True

    # -- per-cell settlement policy ------------------------------------

    def _backoff_delay(self, failed_attempts: int) -> float:
        if self.backoff_base <= 0.0:
            return 0.0
        delay = self.backoff_base * BACKOFF_FACTOR ** (failed_attempts - 1)
        return min(delay, BACKOFF_MAX)

    def _record_success(
        self,
        cell: GridCell,
        result: Any,
        results: List[Any],
        keys: Dict[int, str],
    ) -> None:
        results[cell.index] = result
        self.last_stats.completed += 1
        if self.checkpoint is not None:
            self.checkpoint.store(
                keys[cell.index], cell, result, token=self._worker_token
            )

    def _skip(self, cell: GridCell, state: _CellState) -> None:
        report = FailureReport(
            cell=cell,
            attempts=state.charged(),
            errors=tuple(state.errors),
            wall_time=state.elapsed,
        )
        self.last_failures.append(report)
        self.last_stats.skipped += 1
        self._emit_cell_end(cell, "skipped", state.elapsed)
        LOGGER.warning(
            "skipping cell %d (point=%r, replication=%d) after %d attempt(s): %s",
            cell.index, cell.point, cell.replication, report.attempts,
            state.errors[-1] if state.errors else "unknown failure",
        )

    def _handle_failure(
        self,
        cell: GridCell,
        exc: BaseException,
        state: _CellState,
        waiting: _RetryHeap,
    ) -> None:
        """Bookkeep one failed execution: push the cell onto the ``waiting``
        retry heap, skip it, or raise :class:`SweepError`, per policy."""
        state.attempts += 1
        state.errors.append(repr(exc))
        if self.on_error == "raise":
            raise SweepError(cell, exc, attempts=state.charged()) from exc
        if state.attempts <= self.max_retries:
            delay = self._backoff_delay(state.attempts)
            self.last_stats.retries += 1
            get_telemetry().event(
                "cell.retry",
                index=cell.index,
                attempt=state.attempts,
                delay_s=round(delay, 6),
                error=repr(exc),
            )
            LOGGER.warning(
                "cell %d failed (attempt %d/%d): %r; retrying in %.2fs",
                cell.index, state.attempts, self.max_retries + 1, exc, delay,
            )
            heapq.heappush(waiting, (time.monotonic() + delay, cell.index, cell))
            return
        if self.on_error == "retry":
            raise SweepError(cell, exc, attempts=state.charged()) from exc
        self._skip(cell, state)
