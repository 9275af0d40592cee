"""Golden-schema regression test for the JSONL trace format.

The trace's value is that downstream consumers (``jq`` scripts, the CI
telemetry smoke check, future dashboards) can rely on a stable
``type -> field set`` vocabulary.  This test runs fixed-seed commands and
synthetic exercises that together emit every deterministically-reachable
record type, then compares the observed ``{type: [fields]}`` mapping —
values redacted, only names — against the checked-in snapshot
``tests/data/trace_schema.json``.

To regenerate the snapshot after an *intentional* format change::

    PYTHONPATH=src:tests python -c \
        "import test_trace_schema as t; t.write_snapshot()"

``pool.rebuild`` and ``cell.timeout`` records require killing worker
processes and are pinned statically in the snapshot (see
``STATIC_TYPES``) rather than exercised here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli, obs
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.markov.solve_cache import DEFAULT_CACHE, SolveCache
from repro.obs import Registry, Telemetry, Tracer, activated
from repro.runner import CheckpointStore, GridCell, SweepRunner

SCHEMA_PATH = Path(__file__).parent / "data" / "trace_schema.json"

#: Record types whose emission needs a killed worker process; their field
#: sets are pinned here and unioned into the expectation instead of being
#: exercised (see repro/runner/sweep.py).
STATIC_TYPES = {
    "pool.rebuild": ["reason", "schema", "ts", "type"],
    "cell.timeout": ["elapsed_s", "index", "schema", "ts", "type"],
}


def _flaky(cell: GridCell, context):
    if cell.point == "bad" and cell.replication == 0:
        raise ValueError("synthetic failure")
    return cell.point


def _echo(cell: GridCell, context):
    return cell.point


def _collect(path: Path) -> dict:
    """``{type: sorted field names}`` over every record in one trace file.

    ``ts`` is the only legitimately varying field and is kept (it is part
    of the envelope); *values* are discarded entirely.  A type emitting
    two different field sets is a schema bug and fails immediately.
    """
    mapping: dict = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        fields = sorted(record)
        previous = mapping.setdefault(record["type"], fields)
        assert previous == fields, (
            f"record type {record['type']!r} emitted two field sets: "
            f"{previous} vs {fields}"
        )
    return mapping


def _emit_all(tmp_path: Path) -> dict:
    """Run the fixed-seed commands + synthetic exercises; return the
    union ``{type: fields}`` mapping."""
    DEFAULT_CACHE.clear_memory()  # deterministic miss+store on first solve

    observed: dict = {}

    def fold(path: Path) -> None:
        for type_, fields in _collect(path).items():
            previous = observed.setdefault(type_, fields)
            assert previous == fields

    # 1. The acceptance-criterion command: a registry experiment.
    run_trace = tmp_path / "run.jsonl"
    assert cli.main(["run", "fig-6.1", "--fast", "--trace", str(run_trace)]) == 0
    fold(run_trace)

    # 2. A kernel-backed simulation (engine.batch / engine.round records).
    sim_trace = tmp_path / "simulate.jsonl"
    assert cli.main([
        "simulate", "--nodes", "60", "--view-size", "12", "--d-low", "4",
        "--rounds", "5", "--backend", "array", "--seed", "7",
        "--trace", str(sim_trace),
    ]) == 0
    fold(sim_trace)

    # 3. Synthetic exercises for the fault/caching records.
    extra_trace = tmp_path / "extra.jsonl"
    tracer = Tracer(extra_trace)
    with activated(Telemetry(registry=Registry(), tracer=tracer)):
        # a skipped cell.end
        SweepRunner(jobs=1, on_error="skip").run(_flaky, ["ok", "bad"])
        # checkpoint.hit + a resumed cell.end (second run over a journal)
        store = CheckpointStore(tmp_path / "ckpt")
        SweepRunner(jobs=1, checkpoint=store).run(_echo, [1, 2])
        SweepRunner(jobs=1, checkpoint=store).run(_echo, [1, 2])
        # solve_cache.hit
        cache = SolveCache()
        cache.put("k", 42)
        assert cache.get("k") == 42
        # des.run (the asynchronous engine)
        protocol = SendForget(SFParams(view_size=8, d_low=2))
        for u in range(12):
            protocol.add_node(u, [(u + k) % 12 for k in range(1, 5)])
        DiscreteEventEngine(protocol, seed=3).run_events(25)
    tracer.close()
    fold(extra_trace)

    return observed


def write_snapshot() -> None:  # pragma: no cover - regeneration helper
    """Regenerate tests/data/trace_schema.json from a live run."""
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        observed = _emit_all(Path(scratch))
    observed.update(STATIC_TYPES)
    SCHEMA_PATH.parent.mkdir(parents=True, exist_ok=True)
    SCHEMA_PATH.write_text(
        json.dumps(
            {
                "trace_schema_version": obs.TRACE_SCHEMA_VERSION,
                "types": dict(sorted(observed.items())),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


class TestTraceSchema:
    def test_types_and_fields_match_snapshot(self, tmp_path):
        assert SCHEMA_PATH.is_file(), (
            "missing tests/data/trace_schema.json; regenerate it (see module "
            "docstring)"
        )
        snapshot = json.loads(SCHEMA_PATH.read_text())
        assert snapshot["trace_schema_version"] == obs.TRACE_SCHEMA_VERSION
        observed = _emit_all(tmp_path)
        expected = dict(snapshot["types"])
        for type_, fields in STATIC_TYPES.items():
            assert expected.get(type_) == fields, (
                f"snapshot out of sync with STATIC_TYPES for {type_!r}"
            )
            observed.setdefault(type_, fields)
        assert observed == expected, (
            "trace schema drifted; if intentional, bump TRACE_SCHEMA_VERSION "
            "and regenerate the snapshot (see module docstring)"
        )

    def test_every_record_carries_the_envelope(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert cli.main(["run", "fig-6.1", "--fast", "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records, "trace file is empty"
        for record in records:
            assert record["schema"] == obs.TRACE_SCHEMA_VERSION
            assert isinstance(record["ts"], float)
            assert isinstance(record["type"], str)

    def test_fixed_seed_run_emits_deterministic_type_multiset(self, tmp_path):
        """Two identical fixed-seed runs, each from an empty solve memo,
        emit the same sequence of types."""

        def type_sequence(path: Path):
            DEFAULT_CACHE.clear_memory()
            assert cli.main([
                "run", "fig-6.1", "--fast", "--trace", str(path)
            ]) == 0
            return [
                json.loads(line)["type"]
                for line in path.read_text().splitlines()
            ]

        first = type_sequence(tmp_path / "a.jsonl")
        assert first == type_sequence(tmp_path / "b.jsonl")
