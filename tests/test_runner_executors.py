"""Tests for executor selection, lifetime and cross-executor bit-identity.

Three concerns, in order:

* executor selection — which of ``inline`` / ``process`` / ``thread``
  ``SweepRunner(executor=..., jobs=...)`` runs a sweep on;
* the bit-identity guarantee — the same sweep produces byte-identical
  results on every executor, at any parallelism;
* executor lifetime — one pool per runner, opened by the first cell that
  has to run, joined by ``close()``, reaped by the stdlib when a runner
  is dropped without it.
"""

import gc
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro import cli
from repro.experiments import registry
from repro.runner import CheckpointStore, GridCell, SweepRunner

# Workers must be module-level so out-of-process backends can pickle them.

def _echo_cell(cell: GridCell, context):
    return (cell.index, cell.point, cell.replication, cell.seed, context)


def _square(cell: GridCell, context):
    return cell.point ** 2


def _boom(cell: GridCell, context):
    raise ValueError(f"boom at {cell.point}")


def _pid(cell: GridCell, context):
    return os.getpid()


def _backend(executor, jobs):
    """The executor a runner configured this way actually dispatches on."""
    runner = SweepRunner(jobs=jobs, executor=executor)
    runner.run(_square, [1, 2])
    return runner.last_stats.backend


class TestResolveBackend:
    def test_auto_is_inline_at_jobs_1(self):
        assert _backend("auto", 1) == "inline"
        assert SweepRunner().executor == "auto"

    def test_auto_is_process_pool_at_jobs_many(self):
        assert _backend("auto", 4) == "process"

    def test_names_force_backends_regardless_of_jobs(self):
        assert _backend("inline", 8) == "inline"
        assert _backend("process", 1) == "process"
        assert _backend("thread", 4) == "thread"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            SweepRunner(jobs=4, executor="mainframe")


class TestBitIdentity:
    """The same sweep is byte-identical on every backend."""

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepRunner(executor="inline").run(
            _echo_cell, list(range(6)), replications=2, seed=42,
            context="shared",
        )

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_synthetic_sweep_matches_inline(self, executor, reference):
        got = SweepRunner(jobs=3, executor=executor).run(
            _echo_cell, list(range(6)), replications=2, seed=42,
            context="shared",
        )
        # json.dumps is the byte-level comparison that matters: artifacts
        # are JSON, and pickle bytes legitimately differ across process
        # boundaries (object identity/memoization, not values).
        assert got == reference
        assert json.dumps(got) == json.dumps(reference)

    @pytest.mark.parametrize("name", ["parameter-sweep", "loss-sweep"])
    def test_experiment_records_identical_across_backends(self, name):
        spec = registry.get(name)
        points = list(spec.grid(True))[:3]

        def artifact(**where):
            result = registry.execute(spec, points=points, **where)
            return json.dumps(spec.to_json(result))

        baseline = artifact(executor="inline")
        for executor in ("thread", "process"):
            assert artifact(jobs=2, executor=executor) == baseline

    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_stats_record_backend_name(self, executor):
        runner = SweepRunner(jobs=2, executor=executor)
        runner.run(_square, [1, 2, 3])
        assert runner.last_stats.backend == executor


class TestFuturesBackend:
    def test_cell_timeout_warns_on_thread_backend(self, caplog):
        with caplog.at_level("WARNING", logger="repro.runner"):
            SweepRunner(jobs=2, executor="thread", cell_timeout=60.0).run(
                _square, [1, 2]
            )
        assert any("cell_timeout is not enforced" in record.message
                   for record in caplog.records)

    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_retry_and_skip_policies_work(self, executor):
        """There is no retry: each failing cell runs once, then is skipped."""
        runner = SweepRunner(jobs=2, executor=executor, on_error="skip")
        results = runner.run(_boom, [1, 2])
        assert results == [None, None]
        assert runner.last_stats.skipped == 2
        assert all("boom" in report.error for report in runner.last_failures)


class TestProgressSnapshot:
    def test_snapshot_after_run(self):
        runner = SweepRunner(jobs=1)
        runner.run(_square, [1, 2, 3], replications=2)
        snap = runner.progress_snapshot()
        assert snap["total"] == 6
        assert snap["done"] == 6
        assert snap["completed"] == 6
        assert snap["backend"] == "inline"
        assert snap["failures"] == 0

    def test_snapshot_counts_skips(self):
        runner = SweepRunner(on_error="skip")
        runner.run(_boom, [1, 2])
        snap = runner.progress_snapshot()
        assert snap["done"] == 2
        assert snap["skipped"] == 2
        assert snap["failures"] == 2


def _alive_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestPoolLifetime:
    def test_one_pool_serves_every_run_until_close(self, opened):
        runner = SweepRunner(jobs=2, executor="process")
        assert opened == []  # nothing is forked before a cell has to run
        workers = set(runner.run(_pid, list(range(6))))
        workers |= set(runner.run(_pid, list(range(6))))
        assert len(workers) <= 2
        assert os.getpid() not in workers
        assert opened == [("process", 2)]
        runner.close()
        assert not workers & _alive_pids()  # joined, not merely signalled
        runner.close()  # idempotent
        assert runner.run(_square, [1, 2, 3]) == [1, 4, 9]  # reopens
        assert len(opened) == 2
        runner.close()

    def test_dropped_runner_leaves_no_worker_behind(self):
        """No ``close()``: the stdlib executor's weakref shutdown reaps."""
        runner = SweepRunner(jobs=2, executor="process")
        workers = set(runner.run(_pid, [1, 2, 3]))
        del runner
        gc.collect()
        deadline = time.monotonic() + 30.0
        while workers & _alive_pids():
            assert time.monotonic() < deadline, "orphaned pool worker"
            time.sleep(0.05)

    def test_unclosed_runner_does_not_hold_interpreter_exit(self, child_env):
        script = (
            "from repro.runner import SweepRunner\n"
            "import repro.experiments.registry as registry\n"
            "KEPT = SweepRunner(jobs=2, executor='process')\n"
            "registry.execute('table-6.3', fast=True, runner=KEPT)\n"
            "print('ran', KEPT.last_stats.completed)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ran 3"
        assert done.stderr == ""

    def test_execute_closes_the_runner_it_builds_and_only_that(self, opened):
        before = _alive_pids()
        registry.execute("table-6.3", fast=True, jobs=2, executor="process")
        assert _alive_pids() <= before
        with SweepRunner(jobs=2, executor="process") as runner:
            registry.execute("table-6.3", fast=True, runner=runner)
            registry.execute("lemma-7.5", fast=True, runner=runner)
            assert _alive_pids() - before  # still the caller's to close
        assert _alive_pids() <= before
        assert opened == [("process", 2)] * 2

    def test_report_forks_once_cold_and_never_resumed(
        self, opened, tmp_path, capsys
    ):
        before = _alive_pids()

        def report(output):
            return cli.main([
                "report", "--fast", "--jobs", "2",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--output", str(tmp_path / output),
                "lemma-7.5", "loss-sweep", "fig-6.3",
            ])

        assert report("cold") == 0
        assert opened == [("process", 2)]
        assert _alive_pids() <= before  # a clean close joins its workers
        assert report("resumed") == 0
        assert opened == [("process", 2)]  # pure checkpoint reads fork nothing
        for slug in ("lemma-7_5", "loss-sweep", "fig-6_3"):
            cold = (tmp_path / "cold" / f"{slug}.txt").read_bytes()
            assert (tmp_path / "resumed" / f"{slug}.txt").read_bytes() == cold

    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_kept_executor_changes_no_result_stat_or_journal(
        self, executor, tmp_path
    ):
        """One runner over two grids == a fresh runner per grid."""
        grids = [(list(range(5)), 2, 42), (list(range(3, 9)), 1, 7)]

        def sweep(runner, grid):
            points, replications, seed = grid
            results = runner.run(
                _echo_cell, points, replications=replications, seed=seed,
                context="shared",
            )
            return results, runner.last_stats, runner.last_failures

        def journal(directory):
            return {
                path.name: pickle.loads(path.read_bytes())
                for path in directory.glob("*.pkl")
            }

        with SweepRunner(
            jobs=2, executor=executor, checkpoint=CheckpointStore(tmp_path / "kept")
        ) as kept:
            together = [sweep(kept, grid) for grid in grids]
        apart = []
        for grid in grids:
            with SweepRunner(
                jobs=2, executor=executor,
                checkpoint=CheckpointStore(tmp_path / "fresh"),
            ) as fresh:
                apart.append(sweep(fresh, grid))
        assert together == apart
        assert journal(tmp_path / "kept") == journal(tmp_path / "fresh")
        assert len(journal(tmp_path / "kept")) == 16
