"""Smoke test of the benchmark suite (``--quick`` sizes, under a minute).

    python -m pytest benchmarks/suite/test_suite_smoke.py -q

Holds ``BENCHMARK.json`` equal to the vocabulary in code, runs the whole
suite once at smoke sizes with tracing, and checks that every metric the
contract names is emitted with its unit, that spans nest, and that the
comparison tool agrees a result file is within bounds of itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import vocabulary

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parent.parent
RUN = [sys.executable, str(SUITE / "run.py")]


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    output = tmp_path_factory.mktemp("suite") / "results.json"
    done = subprocess.run(
        [*RUN, "--quick", "--traced", "--repeats", "1", "--output", str(output)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(output.read_text())


def test_contract_file_is_the_vocabulary(contract):
    assert contract == vocabulary.benchmark_json(contract["run_seconds"])


def test_contract_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert vocabulary.NAME_PATTERN.match(name), name
    for workload in contract["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    runs = 4 + 22 * len(contract["workloads"])
    # Set-up, verification and start-up add 2-13 s to a run, 6 s on average.
    assert runs * (contract["run_seconds"] + 10) <= 3420
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_metric_is_emitted_with_its_unit(contract, results):
    assert set(results["workloads"]) == {w["name"] for w in contract["workloads"]}
    for workload, entry in results["workloads"].items():
        for metric in contract["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert row["median"] > 0, (workload, metric["name"])
        for metric in contract["per_layer"]:
            row = entry["per_layer"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert isinstance(row["median"], (int, float))
        assert entry["per_layer"]["trace_overhead_ratio"]["median"] > 0


def test_each_layer_is_exercised_by_its_workload(results):
    may_be_zero = {
        "kernel.jit.ns_per_action",  # 0 without Numba
        "runtime.cluster.timer_lag_ratio",  # 0 when the paced clocks keep up
        "markov.solve_cache.hit_ratio",
    }
    skipped_specs = set(vocabulary.REPORT_SPECS) - set(vocabulary.REPORT_SPECS_QUICK)
    may_be_zero |= {vocabulary.spec_metric(spec) for spec in skipped_specs}
    owners = {
        "sim": ["sim-array-1m", "sim-default-2k"],
        "acting": ["sim-array-1m", "sim-default-2k", "live-udp-100"],
        "all": list(results["workloads"]),
    }
    for layer in vocabulary.PER_LAYER:
        if layer.name in may_be_zero or layer.unit == "count":
            continue
        for workload in owners.get(layer.workload, [layer.workload]):
            row = results["workloads"][workload]["per_layer"][layer.name]
            assert row["median"] != 0, (workload, layer.name)


def test_runs_verify_and_digests_agree(results):
    for workload, entry in results["workloads"].items():
        assert entry["fail_ratio"] == 0, (workload, entry["failed_checks"])
        assert entry["digests_agree"], (workload, entry["digests"])


def test_spans_nest_with_nonnegative_self_time(results):
    for workload, entry in results["workloads"].items():
        assert entry["spans"], workload
        for name, span in entry["spans"].items():
            assert span["count"] > 0
            assert -1e-6 <= span["self_s"] <= span["total_s"] + 1e-6, (workload, name)


def test_host_fingerprint_is_recorded(results):
    host = results["host"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "numba", "blas_env"):
        assert key in host
    assert set(host["blas_env"].values()) == {"1"}


def test_tracer_self_time_and_nesting():
    tracer = harness.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    totals = tracer.totals()
    assert totals["inner"].count == 2 and totals["outer"].count == 1
    assert totals["outer"].self_s == pytest.approx(
        totals["outer"].total_s - totals["inner"].total_s
    )
    assert totals["outer"].self_s >= 0
    assert tracer.nesting_violations() == []
    tracer.end[1] = tracer.end[0] + 1.0  # a child outliving its parent
    assert tracer.nesting_violations()


def test_tracer_patch_restores_the_original():
    class Layer:
        def work(self):
            return 7

    tracer = harness.Tracer()
    layer = Layer()
    with tracer.patched(layer, "work", "layer.work"):
        assert layer.work() == 7
    with tracer.patched(Layer, "work", "layer.work"):
        assert Layer().work() == 7
    assert "work" not in vars(layer) and Layer.work.__name__ == "work"
    assert tracer.totals()["layer.work"].count == 2


def test_compare_a_file_with_itself_is_within(results):
    rows, problems = compare.compare(results, results)
    assert not problems
    assert len(rows) == len(results["workloads"]) * len(vocabulary.END_TO_END)
    assert {row["verdict"] for row in rows} == {"within"}


def test_compare_flags_a_regression(results):
    worse = json.loads(json.dumps(results))
    row = worse["workloads"]["sim-array-1m"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        row[key] *= 1.5
    row["values"] = [value * 1.5 for value in row["values"]]
    rows, _ = compare.compare(results, worse)
    flagged = [r for r in rows if r["verdict"] == "worse"]
    assert [(r["workload"], r["metric"]) for r in flagged] == [("sim-array-1m", "wall_s")]


def test_single_run_prints_the_contract_line(contract):
    done = subprocess.run(
        [*RUN, "--workload", "sim-default-2k", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    for metric in contract["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def _python_pids() -> set:
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if b"python" in (entry / "cmdline").read_bytes():
                    found.add(int(entry.name))
            except OSError:
                pass
    return found


def test_a_run_leaves_no_process_behind():
    """The traced array run starts shard workers and a resource tracker."""
    before = _python_pids()
    done = subprocess.run(
        [*RUN, "--workload", "sim-array-1m", "--seed", "3", "--seconds", "1",
         "--trace", "1", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    after = _python_pids()
    assert done.returncode == 0, done.stderr[-2000:]
    assert after <= before, sorted(after - before)


def test_supervise_ends_what_the_command_abandons(monkeypatch):
    monkeypatch.setattr(harness, "ORPHAN_GRACE_S", 0.2)
    abandon = ("import subprocess, sys; "
               "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])")
    before = _python_pids()
    assert harness.supervise([sys.executable, "-c", abandon], timeout=30) == 0
    assert harness.supervise([sys.executable, "-c", "import time; time.sleep(60)"],
                             timeout=0.2) != 0
    assert _python_pids() <= before


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "sim-default-2k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
