"""Tests for executor selection and cross-executor bit-identity.

Two concerns, in order:

* executor selection — which of ``inline`` / ``process`` / ``thread``
  ``SweepRunner(executor=..., jobs=...)`` runs a sweep on;
* the bit-identity guarantee — the same sweep produces byte-identical
  results on every executor, at any parallelism.
"""

import json

import pytest

from repro.experiments import registry
from repro.runner import GridCell, SweepRunner

# Workers must be module-level so out-of-process backends can pickle them.

def _echo_cell(cell: GridCell, context):
    return (cell.index, cell.point, cell.replication, cell.seed, context)


def _square(cell: GridCell, context):
    return cell.point ** 2


def _boom(cell: GridCell, context):
    raise ValueError(f"boom at {cell.point}")


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
        runner = SweepRunner(jobs=2, executor=executor, on_error="skip",
                             max_retries=1, backoff_base=0.0)
        results = runner.run(_boom, [1, 2])
        assert results == [None, None]
        assert runner.last_stats.skipped == 2
        assert runner.last_stats.retries == 2
        assert all(report.attempts == 2 for report in runner.last_failures)


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
        runner = SweepRunner(on_error="skip", max_retries=0)
        runner.run(_boom, [1, 2])
        snap = runner.progress_snapshot()
        assert snap["done"] == 2
        assert snap["skipped"] == 2
        assert snap["failures"] == 2
