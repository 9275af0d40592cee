"""Fault-tolerance tests for the sweep runner.

Every settlement path — raise, skip, timeout, crash blame, checkpoint/
resume — is exercised with *deterministic* faults: exceptions and hard
``os._exit`` kills scripted per cell and per attempt by
``tests/runner_chaos.py``, or an in-process scripted pool, so nothing
here depends on timing luck or real resource exhaustion.  Pool workers
import ``runner_chaos`` the way they import this module's own workers:
pytest puts ``tests/`` on ``sys.path`` (rootdir conftest, no
``__init__.py``), and a worker process is forked from — or, under
spawn, handed the ``sys.path`` of — the pytest process.

The acceptance test at the bottom: a sweep interrupted mid-grid by a
killed worker resumes from its checkpoint and produces rows
bit-identical to an uninterrupted ``jobs=1`` run.

Pool-path tests default to ``--jobs 4``-style parallelism via the
``REPRO_CHAOS_JOBS`` environment variable (CI's chaos job sets it);
locally they fall back to 2 workers to stay light.
"""

import logging
import os
import pickle
import tempfile
import time
from collections import Counter
from concurrent.futures import BrokenExecutor, Executor, Future
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.sweep as sweep_module

from repro.obs import Registry, Telemetry, activated
from repro.runner import (
    CellTimeout,
    CheckpointStore,
    FailureReport,
    GridCell,
    PoolCrashError,
    SweepError,
    SweepRunner,
    worker_token,
)
from runner_chaos import ChaosError, ChaosSetupError, ChaosWorker, FaultSpec

JOBS = int(os.environ.get("REPRO_CHAOS_JOBS", "2"))

EXECUTORS = ["inline", "thread", "process"]


# ----------------------------------------------------------------------
# Module-level workers (picklable for jobs > 1)
# ----------------------------------------------------------------------


def _pure(cell: GridCell, context):
    """The reference pure worker: result depends only on the cell."""
    return (cell.index, cell.point, cell.replication, cell.seed)


def _returns_closure(cell: GridCell, context):
    """A result no pickler takes: a local function."""
    return lambda: cell.point


def _slow_when_negative(cell: GridCell, context):
    """A negative point hangs for 30 s, leaving its pid in file ``context``."""
    if cell.point < 0:
        if context is not None:
            Path(context).write_text(str(os.getpid()))
        time.sleep(30.0)
    return cell.point


def chaos(worker, state_dir, *faults):
    return ChaosWorker(worker, tuple(faults), state_dir)


def fail_n_times(n, state_dir):
    """``_pure`` failing each cell's first ``n`` attempts, on any executor:
    the attempt counts live in ``state_dir``, so they survive a pool."""
    return chaos(
        _pure, state_dir, FaultSpec("error", indices=tuple(range(64)), times=n)
    )


def attempts(state_dir, fault=0):
    """``{cell index: executions}`` that reached fault ``fault`` of a
    chaos worker, read back from its state dir."""
    counts = {}
    for marker in Path(state_dir).glob(f"cell*-fault{fault}-attempt*"):
        index = int(marker.name[len("cell"):].split("-")[0])
        counts[index] = counts.get(index, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Policy semantics (one matrix: every policy on every executor)
# ----------------------------------------------------------------------


class TestOnErrorPolicies:
    @pytest.mark.parametrize("policy", ["ignore", "retry"])
    def test_invalid_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="on_error"):
            SweepRunner(on_error=policy)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_raise_is_the_default_and_fails_fast(self, executor, tmp_path):
        worker = fail_n_times(1, tmp_path)
        with pytest.raises(SweepError):
            SweepRunner(executor=executor).run(worker, [1, 2, 3])
        # Fail-fast: the failing cell ran once, later cells never ran.
        assert attempts(tmp_path) == {0: 1}

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_skip_records_failure_report_and_none(self, executor, tmp_path):
        worker = fail_n_times(1, tmp_path)
        runner = SweepRunner(executor=executor, on_error="skip")
        out = runner.run(worker, [1, 2], seed=9)
        assert out[0] is None and out[1] is None
        assert runner.last_stats.skipped == 2
        assert len(runner.last_failures) == 2
        report = runner.last_failures[0]
        assert isinstance(report, FailureReport)
        assert report.cell.index == 0
        assert "injected fault" in report.error
        assert report.wall_time >= 0.0
        # A cell runs once: a second run would have passed.
        assert attempts(tmp_path) == {0: 1, 1: 1}

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_skip_keeps_successful_cells(self, executor, tmp_path):
        fail_only_middle = chaos(
            _pure, tmp_path, FaultSpec("error", indices=(1,), times=-1)
        )
        runner = SweepRunner(executor=executor, on_error="skip")
        out = runner.run(fail_only_middle, ["ok", "bad", "fine"], seed=2)
        assert out[0] is not None and out[2] is not None
        assert out[1] is None
        assert [f.cell.point for f in runner.last_failures] == ["bad"]


# ----------------------------------------------------------------------
# Chaos harness mechanics
# ----------------------------------------------------------------------


class TestChaosHarness:
    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode", indices=(1,))
        with pytest.raises(ValueError, match="select"):
            FaultSpec("error")

    def test_selection_by_index_and_seed(self):
        cell = GridCell(index=3, point="p", replication=0, seed=10)
        assert FaultSpec("error", indices=(3,)).selects(cell)
        assert not FaultSpec("error", indices=(4,)).selects(cell)
        assert FaultSpec("error", seed_mod=(2, 0)).selects(cell)
        assert not FaultSpec("error", seed_mod=(2, 1)).selects(cell)
        unseeded = GridCell(index=3, point="p", replication=0, seed=None)
        assert not FaultSpec("error", seed_mod=(2, 0)).selects(unseeded)

    def test_error_injection_counts_attempts_across_calls(self, tmp_path):
        worker = chaos(_pure, tmp_path, FaultSpec("error", indices=(0,), times=2))
        cell = GridCell(index=0, point="x", replication=0, seed=None)
        for _ in range(2):
            with pytest.raises(ChaosError):
                worker(cell, None)
        # Third attempt passes through to the wrapped worker.
        assert worker(cell, None) == _pure(cell, None)
        # A *fresh* wrapper over the same state_dir continues the count —
        # this is what survives worker-process death.
        fresh = chaos(_pure, tmp_path, FaultSpec("error", indices=(0,), times=2))
        assert fresh(cell, None) == _pure(cell, None)

    def test_permanent_fault(self, tmp_path):
        worker = chaos(_pure, tmp_path, FaultSpec("error", indices=(0,), times=-1))
        cell = GridCell(index=0, point="x", replication=0, seed=None)
        for _ in range(5):
            with pytest.raises(ChaosError):
                worker(cell, None)

    def test_kill_refused_in_main_process(self, tmp_path):
        worker = chaos(_pure, tmp_path, FaultSpec("kill", indices=(0,)))
        cell = GridCell(index=0, point="x", replication=0, seed=None)
        with pytest.raises(ChaosSetupError, match="main process"):
            worker(cell, None)

    def test_checkpoint_token_passthrough(self, tmp_path):
        wrapped = chaos(_pure, tmp_path, FaultSpec("error", indices=(9,)))
        assert worker_token(wrapped) == worker_token(_pure)

    def test_chaos_worker_is_picklable(self, tmp_path):
        worker = chaos(_pure, tmp_path, FaultSpec("error", indices=(1,)))
        clone = pickle.loads(pickle.dumps(worker))
        assert clone.checkpoint_token == worker.checkpoint_token
        assert clone.faults == worker.faults


# ----------------------------------------------------------------------
# Pool path: crashes, timeouts
# ----------------------------------------------------------------------


class TestPoolRecovery:
    def test_pool_skip_reports_and_keeps_rest(self, tmp_path):
        worker = chaos(_pure, tmp_path, FaultSpec("error", indices=(2,), times=-1))
        runner = SweepRunner(jobs=JOBS, on_error="skip")
        out = runner.run(worker, list(range(6)), seed=3)
        assert out[2] is None
        assert sum(value is None for value in out) == 1
        assert [f.cell.index for f in runner.last_failures] == [2]
        assert attempts(tmp_path) == {2: 1}

    def test_broken_pool_recovery_keeps_completed_results(self, tmp_path, opened):
        baseline = SweepRunner().run(_pure, list(range(8)), seed=21)
        worker = chaos(_pure, tmp_path, FaultSpec("kill", indices=(5,), times=1))
        runner = SweepRunner(jobs=JOBS)
        out = runner.run(worker, list(range(8)), seed=21)
        assert out == baseline
        assert runner.last_stats.pool_rebuilds == 1
        assert runner.last_stats.completed == 8
        # One pool to start with and one replacement per crash — which the
        # runner keeps: a second sweep on it forks nothing.
        pools = opened.count(("process", JOBS))
        assert pools == 1 + runner.last_stats.pool_rebuilds
        assert runner.run(_pure, list(range(8)), seed=21) == baseline
        assert opened.count(("process", JOBS)) == pools

    def test_pool_found_dead_at_submit_is_rebuilt(self, monkeypatch):
        """A worker can die between two waits; the pool then refuses the
        next submission instead of failing a future."""

        class _DeadOnArrival(Executor):
            def submit(self, fn, /, *args, **kwargs):
                raise BrokenExecutor("a child process terminated abruptly")

        real_open = sweep_module._open_executor
        dead = [_DeadOnArrival()]
        monkeypatch.setattr(
            sweep_module, "_open_executor",
            lambda kind, width: dead.pop() if dead else real_open(kind, width),
        )
        runner = SweepRunner(jobs=JOBS, executor="thread")
        assert runner.run(_pure, [1, 2, 3], seed=4) == SweepRunner().run(
            _pure, [1, 2, 3], seed=4
        )
        assert runner.last_stats.pool_rebuilds == 1
        assert runner.last_failures == []  # nobody was in flight to blame

    @pytest.mark.parametrize("script, lost, runs", [
        (["ok", "transient"], [{1}], {0: 1, 1: 2}),  # a result beside a crash
        (["ok", "transient", "ok"], [{1, 2}], {0: 1, 1: 2, 2: 2}),
        (["transient", "ok"], [{0, 1}], {0: 2, 1: 2}),
        (["ok", "permanent"], [{1}, {1}], {0: 1, 1: 2}),
        (["permanent", "ok", "permanent"], [{0, 1, 2}, {0}, {2}], {0: 2, 1: 2, 2: 2}),
        (["transient", "transient"], [{0, 1}], {0: 2, 1: 2}),
        (["permanent"], [{0}, {0}], {0: 2}),  # a batch of one re-runs too
    ])
    def test_one_batch_crash_is_blamed_exactly(self, script, lost, runs):
        """The whole grid in one batch, whose ``wait`` lists a broken future
        before a finished one: results that landed are kept, every lost
        cell re-runs alone once, and only a permanent crasher is skipped."""
        out, worker, crashes, _ = _run_scripted(script, jobs=len(script))
        pure = SweepRunner().run(_pure, list(range(len(script))), seed=5)
        assert out == [None if k == "permanent" else pure[i] for i, k in enumerate(script)]
        assert crashes == lost
        assert dict(worker.calls) == runs

    def test_poison_cell_skipped_under_skip_policy(self, tmp_path):
        """A cell that kills its worker on *every* run is the only one
        skipped: its in-flight neighbours re-run alone and pass."""
        worker = chaos(
            _pure, tmp_path,
            FaultSpec("kill", indices=(3,), times=-1),
            FaultSpec("error", indices=tuple(range(6)), times=0),  # counts runs
        )
        runner = SweepRunner(jobs=JOBS, on_error="skip")
        out = runner.run(worker, list(range(6)), seed=33)
        assert out[3] is None
        assert sum(value is None for value in out) == 1
        report = runner.last_failures[0]
        assert report.cell.index == 3
        assert "BrokenProcessPool" in report.error
        # One batch crash, then the poison cell's solo crash; every other
        # cell ran once, or twice if it was in flight beside the poison.
        assert runner.last_stats.pool_rebuilds == 2
        assert attempts(tmp_path) == {3: 2}
        innocents = attempts(tmp_path, fault=1)
        assert set(innocents) == {0, 1, 2, 4, 5}
        assert set(innocents.values()) <= {1, 2}

    def test_batch_of_poison_cells_costs_one_rebuild_budget(self, tmp_path, monkeypatch):
        """Two permanent crashers in one batch crash it once; their solo
        crashes convict them without touching ``MAX_POOL_REBUILDS``."""
        monkeypatch.setattr(sweep_module, "MAX_POOL_REBUILDS", 1)
        worker = chaos(_pure, tmp_path, FaultSpec("kill", indices=(0, 1), times=-1))
        runner = SweepRunner(jobs=2, on_error="skip")
        out = runner.run(worker, list(range(4)), seed=8)
        assert out[:2] == [None, None]
        assert out[2:] == SweepRunner().run(_pure, list(range(4)), seed=8)[2:]
        assert [f.cell.index for f in runner.last_failures] == [0, 1]
        assert runner.last_stats.pool_rebuilds == 3

    def test_rebuild_budget_exhaustion_raises_pool_crash_error(self, tmp_path, monkeypatch):
        """Three cells that each kill their worker on their first run only:
        one worker makes each a batch crash of its own."""
        monkeypatch.setattr(sweep_module, "MAX_POOL_REBUILDS", 2)
        worker = chaos(_pure, tmp_path, FaultSpec("kill", indices=(0, 1, 2), times=1))
        runner = SweepRunner(jobs=1, executor="process")
        with pytest.raises(PoolCrashError, match="crashed 3 times"):
            runner.run(worker, list(range(4)), seed=1)

    def test_crash_budget_exhaustion_raises_sweep_error(self, tmp_path):
        """Under "raise", the cell that crashes its pool again while
        running alone is the one the error names."""
        worker = chaos(_pure, tmp_path, FaultSpec("kill", indices=(0,), times=-1))
        runner = SweepRunner(jobs=JOBS)
        with pytest.raises(SweepError) as info:
            runner.run(worker, list(range(4)), seed=1)
        assert info.value.cell.index == 0
        assert "BrokenProcessPool" in repr(info.value.cause)

    def test_timeout_skip_records_cell_timeout(self):
        runner = SweepRunner(jobs=JOBS, on_error="skip", cell_timeout=1.5)
        out = runner.run(_slow_when_negative, [1, -2, 3])
        assert out == [1, None, 3]
        report = runner.last_failures[0]
        assert report.cell.point == -2
        assert CellTimeout.__name__ in report.error

    def test_overdue_worker_is_killed_not_abandoned(self, tmp_path):
        import multiprocessing

        pid_file = tmp_path / "hung.pid"
        runner = SweepRunner(jobs=JOBS, on_error="skip", cell_timeout=1.5)
        out = runner.run(_slow_when_negative, [1, -2, 3], context=str(pid_file))
        assert out == [1, None, 3]
        hung = int(pid_file.read_text())
        # The worker sleeping 30 s in cell -2 must die with the pool the
        # deadline replaced, not linger until the sleep (and the
        # interpreter's exit) runs out.  The live runner may still hold
        # an idle, healthy pool: that is not it.
        deadline = time.monotonic() + 10.0
        while hung in {child.pid for child in multiprocessing.active_children()}:
            assert time.monotonic() < deadline, "hung worker still alive"
            time.sleep(0.05)

    def test_timeout_under_raise_policy_fails_fast(self):
        runner = SweepRunner(jobs=JOBS, cell_timeout=1.5)
        with pytest.raises(SweepError) as info:
            runner.run(_slow_when_negative, [1, -2, 3])
        assert isinstance(info.value.cause, CellTimeout)

    @pytest.mark.parametrize(
        "seconds", [0, -1.0, float("inf"), -float("inf"), float("nan")]
    )
    def test_timeout_must_be_finite_and_positive(self, seconds):
        """``inf`` would overflow ``wait`` mid-sweep and ``nan`` would mean
        no deadline at all, so both fail at construction."""
        with pytest.raises(ValueError, match="finite positive"):
            SweepRunner(jobs=JOBS, cell_timeout=seconds)

    def test_inline_timeout_ignored_with_warning(self, caplog):
        runner = SweepRunner(jobs=1, cell_timeout=0.5)
        with caplog.at_level(logging.WARNING, logger="repro.runner"):
            out = runner.run(_pure, [1, 2], seed=4)
        assert out == SweepRunner().run(_pure, [1, 2], seed=4)
        assert any("cell_timeout" in r.message for r in caplog.records)


# ----------------------------------------------------------------------
# Checkpoint/resume
# ----------------------------------------------------------------------


class TestCheckpointStore:
    def _cell(self, index=0, point="p", replication=0, seed=5):
        return GridCell(index=index, point=point, replication=replication, seed=seed)

    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cell = self._cell()
        key = store.cell_key(_pure, cell, None)
        registry = Registry()
        with activated(Telemetry(registry)):
            assert store.load(key) == (False, None)
            store.store(key, {"value": 42})
            assert store.load(key) == (True, {"value": 42})
        assert len(store) == 1
        assert [registry.counter(f"checkpoint.{name}")
                for name in ("misses", "writes", "hits")] == [1, 1, 1]

    def test_key_sensitivity(self, tmp_path):
        store = CheckpointStore(tmp_path)
        base = store.cell_key(_pure, self._cell(), "ctx")
        assert base == store.cell_key(_pure, self._cell(), "ctx")
        assert base != store.cell_key(_pure, self._cell(point="q"), "ctx")
        assert base != store.cell_key(_pure, self._cell(seed=6), "ctx")
        assert base != store.cell_key(_pure, self._cell(replication=1), "ctx")
        assert base != store.cell_key(_pure, self._cell(index=1), "ctx")
        assert base != store.cell_key(_pure, self._cell(), "other-ctx")
        assert base != store.cell_key(_slow_when_negative, self._cell(), "ctx")

    def test_falsey_result_is_a_hit(self, tmp_path):
        """A journaled None/0/[] must read back as a hit, not a miss."""
        store = CheckpointStore(tmp_path)
        cell = self._cell()
        key = store.cell_key(_pure, cell, None)
        store.store(key, None)
        assert store.load(key) == (True, None)

    def test_corrupt_entry_quarantined(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path)
        cell = self._cell()
        key = store.cell_key(_pure, cell, None)
        store.store(key, 1)
        (tmp_path / f"{key}.pkl").write_bytes(b"garbage")
        fresh = CheckpointStore(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.runner.checkpoint"):
            assert fresh.load(key) == (False, None)
        assert not (tmp_path / f"{key}.pkl").exists()
        assert any("quarantined" in r.message for r in caplog.records)

    def test_quarantine_warns_once_then_debug(self, tmp_path, caplog):
        for name in ("a", "b"):
            (tmp_path / f"{name}.pkl").write_bytes(b"garbage")
        store = CheckpointStore(tmp_path)
        with caplog.at_level(logging.DEBUG, logger="repro.runner.checkpoint"):
            assert store.load("a") == store.load("b") == (False, None)
        assert [r.levelname for r in caplog.records] == ["WARNING", "DEBUG"]
        assert sorted(p.name for p in (tmp_path / "quarantine").iterdir()) == [
            "a.pkl", "b.pkl"
        ]

    def test_missing_entry_is_a_quiet_miss(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.runner.checkpoint"):
            assert CheckpointStore(tmp_path).load("never-written") == (False, None)
        assert not caplog.records and list(tmp_path.iterdir()) == []

    def test_store_leaves_no_temp_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(5):
            store.store(f"k{i}", i)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"k{i}.pkl" for i in range(5)
        ]

    def test_len_counts_entries_only(self, tmp_path):
        """Orphan temp files and quarantined entries are never read, so
        they are not entries."""
        store = CheckpointStore(tmp_path)
        assert len(store) == 0
        store.store("a", 1)
        store.store("b", 2)
        (tmp_path / "c.pkl").write_bytes(b"garbage")
        (tmp_path / "orphan.tmp").write_bytes(b"half-written")
        assert len(store) == 3
        assert store.load("c") == (False, None)  # quarantined
        assert len(store) == 2

    def test_result_that_does_not_pickle_is_not_journaled(self, tmp_path, caplog):
        """A journal that cannot take a result costs the resume, not the
        sweep: the inline run returns its results and logs once."""
        store = CheckpointStore(tmp_path)
        with caplog.at_level(logging.DEBUG, logger="repro.runner.checkpoint"):
            out = SweepRunner(jobs=1, checkpoint=store).run(_returns_closure, [1, 2])
        assert [make() for make in out] == [1, 2]
        assert len(store) == 0
        assert list(tmp_path.iterdir()) == []
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "does not pickle" in warnings[0].getMessage()

    def test_resume_skips_journaled_cells(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first = SweepRunner(checkpoint=store).run(
            _pure, [1, 2, 3], replications=2, seed=8
        )
        # Would fail every cell if executed, and has _pure's checkpoint
        # identity: resume must make execution moot.
        worker = fail_n_times(99, tmp_path / "chaos")
        resumed_runner = SweepRunner(checkpoint=CheckpointStore(tmp_path))
        assert resumed_runner.run(worker, [1, 2, 3], replications=2, seed=8) == first
        assert attempts(tmp_path / "chaos") == {}  # nothing was re-executed
        assert resumed_runner.last_stats.resumed == 6

    def test_changed_grid_does_not_false_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        SweepRunner(checkpoint=store).run(_pure, [1, 2], seed=8)
        runner = SweepRunner(checkpoint=CheckpointStore(tmp_path))
        runner.run(_pure, [1, 2], seed=9)  # different base seed
        assert runner.last_stats.resumed == 0

    def test_failed_cells_are_not_journaled(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = SweepRunner(on_error="skip", checkpoint=store)
        runner.run(fail_n_times(99, tmp_path / "chaos"), [1, 2], seed=8)
        assert len(store) == 0  # skip != success: both cells run next time

    def test_unwritable_directory_warns_once_and_sweep_completes(
        self, tmp_path, caplog
    ):
        blocker = tmp_path / "a-regular-file"
        blocker.write_text("not a directory")
        store = CheckpointStore(blocker / "ckpt")
        registry = Registry()
        with caplog.at_level(logging.DEBUG, logger="repro.runner.checkpoint"), \
                activated(Telemetry(registry)):
            out = SweepRunner(checkpoint=store).run(_pure, [1, 2, 3], seed=8)
        assert out == SweepRunner().run(_pure, [1, 2, 3], seed=8)
        assert registry.counter("checkpoint.writes") == 0
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert str(blocker / "ckpt") in warnings[0].getMessage()
        assert "errno" in warnings[0].getMessage()
        # The other two failed writes were reported, but quietly.
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG
                 and "checkpoint write" in r.getMessage()]
        assert len(debug) == 2


# ----------------------------------------------------------------------
# Properties: any fault script, any policy, any journaled prefix
# ----------------------------------------------------------------------


class _Scripted:
    """``_pure``, scripted per cell: ``"ok"`` passes, ``"fails"`` raises,
    ``"transient"`` kills its worker on its first run and ``"permanent"``
    on every run.  Counts every execution in memory, so it suits only
    in-process executors; journals under ``_pure``'s identity."""

    def __init__(self, script):
        self.script = script
        self.calls = Counter()
        self.checkpoint_token = worker_token(_pure)

    def __call__(self, cell: GridCell, context):
        self.calls[cell.index] += 1
        kind = self.script[cell.index]
        if kind == "fails":
            raise ValueError(f"scripted failure on cell {cell.index}")
        if kind == "permanent" or (kind == "transient" and self.calls[cell.index] == 1):
            raise BrokenExecutor(f"cell {cell.index} killed its worker")
        return _pure(cell, context)


class _ScriptedPool(Executor):
    """A process pool's crash semantics, in process and deterministic:
    stands in for the sweep loop's ``_open_executor`` and ``wait``, which
    runs the queued calls in submit order and lists the latest future
    first.  A call raising ``BrokenExecutor`` kills its worker: the calls
    before it keep their results; it and the calls after it, in flight
    beside it, fail with ``BrokenExecutor``.  ``lost`` logs each crash.
    """

    def __init__(self):
        self.lost, self.queued = [], []

    def open(self, kind, max_workers):
        return self

    def submit(self, fn, cell, context):
        self.queued.append((Future(), fn, cell, context))
        return self.queued[-1][0]

    def wait(self, futures, timeout=None, return_when=None):
        queued, self.queued = self.queued, []
        broken = False
        for future, fn, cell, context in queued:
            try:
                value = fn(cell, context)
            except BrokenExecutor:
                broken = True
            if broken:
                future.set_exception(BrokenExecutor("a worker died"))
            else:
                future.set_result(value)
        if broken:
            self.lost.append(
                {cell.index for future, _, cell, _ in queued if future.exception()}
            )
        return list(reversed(list(futures))), []


class TestFaultScriptProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(st.sampled_from(["ok", "fails"]), min_size=1, max_size=12),
        on_error=st.sampled_from(["raise", "skip"]),
        executor=st.sampled_from(["inline", "thread"]),
        jobs=st.integers(1, 3),
        journaled=st.integers(0, 12),
    )
    def test_policy_counts_and_resume(self, script, on_error, executor, jobs, journaled):
        total = len(script)
        points = list(range(total))
        pure = SweepRunner().run(_pure, points, seed=3)
        journaled = min(journaled, total)
        doomed = [i for i in range(journaled, total) if script[i] == "fails"]

        with tempfile.TemporaryDirectory() as scratch:
            store = CheckpointStore(Path(scratch) / "journal")
            # An earlier run journaled a prefix of the grid (per-cell seeds
            # are position-derived, so the prefix's keys are the grid's).
            SweepRunner(checkpoint=store).run(_pure, points[:journaled], seed=3)
            assert len(store) == journaled

            worker = _Scripted(script)
            runner = SweepRunner(
                jobs=jobs, executor=executor, on_error=on_error, checkpoint=store,
            )
            if doomed and on_error == "raise":
                with pytest.raises(SweepError) as info:
                    runner.run(worker, points, seed=3)
                if executor == "inline" or jobs == 1:
                    assert info.value.cell.index == doomed[0]
                else:
                    assert info.value.cell.index in doomed
                assert set(worker.calls.values()) == {1}
            else:
                out = runner.run(worker, points, seed=3)
                assert out == [
                    None if i in doomed else pure[i] for i in range(total)
                ]
                stats = runner.last_stats
                assert stats.resumed == journaled
                assert stats.skipped == len(doomed)
                assert stats.resumed + stats.completed + stats.skipped == total
                assert sorted(f.cell.index for f in runner.last_failures) == doomed
                # Journaled cells never ran; every other cell ran once.
                assert dict(worker.calls) == {i: 1 for i in range(journaled, total)}
                # Exactly one journal entry per successfully settled cell.
                assert len(store) == total - len(doomed)
            assert not list(store.directory.glob("*.tmp"))

            # Whatever subset is journaled by now, a clean re-run executes
            # exactly the missing cells and reproduces the pure map.
            already = len(store)
            clean = _Scripted(["ok"] * total)
            rerunner = SweepRunner(
                jobs=jobs, executor=executor,
                checkpoint=CheckpointStore(store.directory),
            )
            assert rerunner.run(clean, points, seed=3) == pure
            assert rerunner.last_stats.resumed == already
            assert rerunner.last_stats.completed == total - already
            assert sum(clean.calls.values()) == total - already
            assert len(store) == total


def _run_scripted(script, jobs, budget=sweep_module.MAX_POOL_REBUILDS):
    """Run ``script`` under ``"skip"`` on a :class:`_ScriptedPool`: returns
    ``(results or None after PoolCrashError, worker, lost, runner)``."""
    worker, pool = _Scripted(script), _ScriptedPool()
    runner = SweepRunner(jobs=jobs, executor="process", on_error="skip")
    with patch.object(sweep_module, "_open_executor", pool.open), \
            patch.object(sweep_module, "wait", pool.wait), \
            patch.object(sweep_module, "MAX_POOL_REBUILDS", budget):
        try:
            out = runner.run(worker, list(range(len(script))), seed=5)
        except PoolCrashError:
            out = None
    return out, worker, pool.lost, runner


class TestCrashBlameProperty:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.sampled_from(["ok", "ok", "transient", "permanent"]),
            min_size=1, max_size=10,
        ),
        budget=st.integers(0, 3),
    )
    def test_blame_is_exact(self, jobs, script, budget):
        out, worker, lost, runner = _run_scripted(script, jobs, budget)
        # A crash that took a cell an earlier crash took is a solo re-run:
        # it took nothing else.  Every other crash took a batch.
        batches, seen = [], set()
        for cells in lost:
            if cells & seen:
                assert len(cells) == 1
            else:
                batches.append(cells)
            seen |= cells
        assert (out is None) == (len(batches) > budget)
        assert max(worker.calls.values()) <= 2
        if out is None:
            return
        pure = SweepRunner().run(_pure, list(range(len(script))), seed=5)
        assert out == [
            None if kind == "permanent" else pure[i] for i, kind in enumerate(script)
        ]
        assert {i for i, runs in worker.calls.items() if runs == 2} == seen
        assert runner.last_stats.pool_rebuilds == len(lost)
        if jobs == 1:  # a batch of one: every crasher crashes its own
            assert len(batches) == len(script) - script.count("ok")


# ----------------------------------------------------------------------
# Acceptance: interrupted sweep resumes bit-identical
# ----------------------------------------------------------------------


class TestInterruptedSweepResume:
    def test_kill_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end.

        1. Baseline: the full grid, uninterrupted, at jobs=1.
        2. A chaotic parallel run whose worker is *killed* mid-grid
           (``os._exit`` via the chaos harness) dies with part of the
           grid journaled.
        3. A resume run over the same checkpoint directory — with the
           plain worker, at jobs=1 — loads the journaled cells and
           computes the rest.

        The resumed output must equal the baseline bit-for-bit, and the
        resume must genuinely start from the journal (≥ 1 resumed cell).
        """
        points = [0.0, 0.01, 0.05, 0.1, 0.15, 0.2]
        grid = dict(points=points, replications=2, seed=2009)

        baseline = SweepRunner(jobs=1).run(_pure, **grid)

        checkpoint_dir = tmp_path / "journal"
        chaos_state = tmp_path / "chaos"
        # The poison cell kills its worker on every run; convicted by its
        # solo re-run, it fails the run mid-grid.
        worker = chaos(
            _pure, chaos_state, FaultSpec("kill", indices=(9,), times=-1)
        )
        interrupted = SweepRunner(
            jobs=JOBS, checkpoint=CheckpointStore(checkpoint_dir)
        )
        with pytest.raises(SweepError):
            interrupted.run(worker, **grid)

        journaled = len(CheckpointStore(checkpoint_dir))
        assert 0 < journaled < len(points) * 2  # died mid-grid, progress kept

        resume_runner = SweepRunner(
            jobs=1, checkpoint=CheckpointStore(checkpoint_dir)
        )
        resumed = resume_runner.run(_pure, **grid)

        assert resumed == baseline  # bit-identical to the uninterrupted run
        assert resume_runner.last_stats.resumed == journaled >= 1
        assert resume_runner.last_stats.completed == len(points) * 2 - journaled

    def test_resume_is_also_identical_under_parallel_resume(self, tmp_path):
        """Resuming at jobs=N equals resuming at jobs=1 (pure workers)."""
        grid = dict(points=[1, 2, 3, 4, 5], replications=2, seed=77)
        baseline = SweepRunner(jobs=1).run(_pure, **grid)
        store_dir = tmp_path / "journal"
        worker = chaos(
            _pure, tmp_path / "chaos", FaultSpec("kill", indices=(6,), times=-1)
        )
        with pytest.raises(SweepError):
            SweepRunner(jobs=JOBS, checkpoint=CheckpointStore(store_dir)).run(
                worker, **grid
            )
        parallel = SweepRunner(
            jobs=JOBS, checkpoint=CheckpointStore(store_dir)
        ).run(_pure, **grid)
        assert parallel == baseline
