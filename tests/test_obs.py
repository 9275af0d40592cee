"""Tests for the telemetry subsystem (repro.obs)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core.params import SFParams
from repro.engine.sequential import SequentialEngine
from repro.kernel.array import ArrayKernel
from repro.net.loss import UniformLoss
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    Registry,
    Telemetry,
    Tracer,
    activated,
    get_telemetry,
)
from repro.obs.profile import phase
from repro.obs.worker import MeteredResult, MeteredWorker
from repro.runner import CheckpointStore, GridCell, SweepRunner


# Workers must be module-level so jobs > 1 can pickle them.

def _square(cell: GridCell, context):
    return cell.point * cell.point


def _metered_square(cell: GridCell, context):
    get_telemetry().inc("test.squares")
    return cell.point * cell.point


def _simulate_cell(cell: GridCell, context):
    """A real (tiny) simulation cell: degree sequence after a few rounds."""
    kernel = ArrayKernel(SFParams(view_size=12, d_low=2))
    n = 40
    for u in range(n):
        kernel.add_node(u, [(u + k) % n for k in range(1, 7)])
    engine = SequentialEngine(kernel, UniformLoss(0.05), seed=cell.seed)
    engine.run_rounds(5)
    return sorted(kernel.outdegree(u) for u in range(n))


class TestRegistry:
    def test_counters_gauges_histograms_timers(self):
        registry = Registry()
        registry.inc("c")
        registry.inc("c", 4)
        registry.set_gauge("g", 1.5)
        registry.set_gauge("g", 2.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        registry.observe_timer("t", 0.5, cpu=0.25)
        assert registry.counter("c") == 5
        assert registry.gauge("g") == 2.5
        snap = registry.snapshot()
        assert snap["schema_version"] == METRICS_SCHEMA_VERSION
        assert snap["histograms"]["h"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0,
        }
        assert snap["timers"]["t"]["count"] == 1
        assert snap["timers"]["t"]["cpu_total"] == 0.25

    def test_snapshot_is_json_safe_and_sorted(self):
        registry = Registry()
        registry.inc("b")
        registry.inc("a")
        snap = json.loads(json.dumps(registry.snapshot()))
        assert list(snap["counters"]) == ["a", "b"]

    def test_merge_snapshot_accumulates(self):
        parent, worker = Registry(), Registry()
        parent.inc("c", 1)
        worker.inc("c", 2)
        worker.observe("h", 7.0)
        worker.observe_timer("t", 1.0, cpu=0.5)
        worker.set_gauge("g", 9.0)
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["histograms"]["h"]["max"] == 7.0
        assert snap["timers"]["t"]["cpu_total"] == 0.5
        assert snap["gauges"]["g"] == 9.0

    def test_merge_rejects_other_schema(self):
        registry = Registry()
        with pytest.raises(ValueError):
            registry.merge_snapshot({"schema_version": 999})


class TestTracer:
    def test_emits_meta_then_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        tracer.emit("custom", value=np.float64(1.25), count=np.int64(3))
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in records] == ["trace.meta", "custom"]
        assert all(r["schema"] == obs.TRACE_SCHEMA_VERSION for r in records)
        # numpy scalars serialize as plain JSON numbers, not reprs
        assert records[1]["value"] == 1.25
        assert records[1]["count"] == 3

    def test_foreign_pid_writes_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        tracer._pid = tracer._pid + 1  # simulate a forked child
        tracer.emit("should.not.appear")
        tracer.close()
        types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert types == ["trace.meta"]


class TestTelemetry:
    def test_default_is_disabled_noop(self):
        tel = get_telemetry()
        assert not tel.active
        tel.inc("x")
        tel.event("y")  # must not raise

    def test_activated_restores_previous(self):
        inner = Telemetry(registry=Registry())
        with activated(inner):
            assert get_telemetry() is inner
            assert get_telemetry().active
        assert not get_telemetry().active

    def test_phase_records_timer_and_event(self, tmp_path):
        registry = Registry()
        tracer = Tracer(tmp_path / "t.jsonl")
        with activated(Telemetry(registry=registry, tracer=tracer)):
            with phase("unit_test"):
                pass
        tracer.close()
        assert registry.timer_stat("phase.unit_test")["count"] == 1
        records = [
            json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        ]
        phases = [r for r in records if r["type"] == "phase"]
        assert phases and phases[0]["name"] == "unit_test"
        assert set(phases[0]) == {"schema", "ts", "type", "name", "duration_s", "cpu_s"}


class TestMeteredWorker:
    def test_wraps_and_snapshots(self):
        metered = MeteredWorker(_metered_square)
        cell = GridCell(index=0, point=3, replication=0, seed=None)
        result = metered(cell, None)
        assert isinstance(result, MeteredResult)
        assert result.value == 9
        assert result.metrics["counters"]["test.squares"] == 1
        assert result.metrics["timers"]["phase.cell_run"]["count"] == 1

    def test_metered_journal_resumes_bare_and_back(self, tmp_path):
        """The runner keys a cell on the bare worker before it wraps it in
        a :class:`MeteredWorker`, so metering never moves a checkpoint."""
        journal = tmp_path / "journal"
        with activated(Telemetry(Registry())):
            with SweepRunner(jobs=2, checkpoint=CheckpointStore(journal)) as runner:
                metered = runner.run(_square, [1, 2, 3], seed=1)
        with SweepRunner(jobs=2, checkpoint=CheckpointStore(journal)) as runner:
            assert runner.run(_square, [1, 2, 3], seed=1) == metered
            assert runner.last_stats.resumed == 3

    def test_does_not_leak_telemetry(self):
        MeteredWorker(_square)(GridCell(0, 2, 0, None), None)
        assert not get_telemetry().active


class TestDeterminism:
    def test_simulation_bit_identical_with_telemetry(self, tmp_path):
        cell = GridCell(index=0, point=None, replication=0, seed=1234)
        plain = _simulate_cell(cell, None)
        tel = Telemetry(Registry(), Tracer(tmp_path / "t.jsonl"))
        with activated(tel):
            with_telemetry = _simulate_cell(cell, None)
        tel.tracer.close()
        assert plain == with_telemetry
        assert tel.registry.counter("engine.actions") == 200

    def test_pool_results_unchanged_and_metrics_merged(self):
        points = [1, 2, 3, 4]
        serial = SweepRunner(jobs=1).run(_metered_square, points)
        registry = Registry()
        with activated(Telemetry(registry=registry)):
            pooled = SweepRunner(jobs=2).run(_metered_square, points)
        assert pooled == serial == [1, 4, 9, 16]
        snap = registry.snapshot()
        # One worker-side counter bump and one cell_run phase per cell,
        # merged deterministically into the parent registry.
        assert snap["counters"]["test.squares"] == 4
        assert snap["timers"]["phase.cell_run"]["count"] == 4
        assert snap["counters"]["sweep.completed"] == 4

    def test_inline_metrics_match_pool_counters(self):
        points = [1, 2, 3]
        inline_registry = Registry()
        with activated(Telemetry(registry=inline_registry)):
            SweepRunner(jobs=1).run(_metered_square, points)
        pool_registry = Registry()
        with activated(Telemetry(registry=pool_registry)):
            SweepRunner(jobs=2).run(_metered_square, points)
        inline_snap = inline_registry.snapshot()
        pool_snap = pool_registry.snapshot()
        assert inline_snap["counters"] == pool_snap["counters"]
