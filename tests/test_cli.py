"""Tests for the command-line interface."""

import json
import multiprocessing
import os
import re
import socket
import subprocess
import sys

import pytest

import repro.experiments.common
import repro.runtime
from repro import obs
from repro.cli import build_parser, main
from repro.experiments import registry


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"
        assert not args.json

    def test_list_json_parses(self):
        assert build_parser().parse_args(["list", "--json"]).json

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "fig-6.1", "--fast"])
        assert args.experiment == "fig-6.1"
        assert args.fast

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.nodes == 500
        assert args.view_size == 40
        assert args.backend == "reference"

    def test_backend_flag_on_all_simulation_commands(self):
        parser = build_parser()
        for argv in (
            ["run", "fig-6.3", "--backend", "array"],
            ["simulate", "--backend", "array"],
            ["report", "fig-6.3", "--backend", "reference-kernel"],
        ):
            assert parser.parse_args(argv).backend == argv[-1]
        for backend in repro.experiments.common.BACKENDS:
            args = parser.parse_args(["simulate", "--backend", backend])
            assert args.backend == backend

    def test_unknown_backend_rejected_by_parser(self, capsys):
        for backend in ("gpu", "jit"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", "--backend", backend])
        assert "invalid choice: 'jit'" in capsys.readouterr().err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_jobs_flag_on_run_and_report(self):
        parser = build_parser()
        assert parser.parse_args(["run", "fig-6.3", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["report", "--jobs", "0"]).jobs == 0
        assert parser.parse_args(["run", "fig-6.3"]).jobs == 1  # serial default

    def test_artifacts_dir_flag(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig-6.1", "--artifacts-dir", "out"])
        assert args.artifacts_dir == "out"
        assert parser.parse_args(["run", "fig-6.1"]).artifacts_dir is None

    def test_cluster_failure_detection_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["cluster", "--n", "20", "--kill-wave", "4", "--failure-detection",
             "--suspect-after", "1.0", "--fail-after", "0.5"]
        )
        assert args.kill_wave == 4
        assert args.failure_detection
        assert args.suspect_after == 1.0
        assert args.fail_after == 0.5
        defaults = parser.parse_args(["cluster"])
        assert defaults.kill_wave == 0
        assert not defaults.failure_detection


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names(include_aliases=True):
            assert name in out

    def test_list_shows_aliases_distinctly(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table-6.4" in out
        assert "alias for fig-6.3" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert set(by_name) == set(registry.names())
        assert by_name["fig-6.3"]["aliases"] == ["table-6.4"]
        for entry in payload:
            assert entry["anchor"]
            assert entry["schema_version"] >= 1

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_list_into_closed_pipe_leaves_no_traceback(self, flags, child_env):
        """``repro list | head -1`` with the race taken out: the reader is
        gone before the listing is written, so the write fails either in
        ``print`` (unbuffered) or in the flush that ends ``main``."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "repro", "list"],
                env=child_env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == 1

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fast_analytic(self, capsys):
        assert main(["run", "table-6.3", "--fast"]) == 0
        assert "30" in capsys.readouterr().out

    def test_run_fast_fig_6_2(self, capsys):
        assert main(["run", "fig-6.2"]) == 0
        assert "Figure 6.2" in capsys.readouterr().out

    def test_run_alias_matches_canonical(self, capsys):
        assert main(["run", "table-6.4", "--fast"]) == 0
        via_alias = capsys.readouterr().out
        assert main(["run", "fig-6.3", "--fast"]) == 0
        assert capsys.readouterr().out == via_alias

    def test_run_backend_warning_on_analytic_experiment(self, capsys):
        assert main(["run", "fig-6.1", "--fast", "--backend", "array"]) == 0
        err = capsys.readouterr().err
        assert "analytic" in err and "array" in err

    def test_run_no_backend_warning_on_default(self, capsys):
        assert main(["run", "fig-6.1", "--fast"]) == 0
        assert "analytic" not in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path, capsys):
        assert main(
            ["run", "fig-6.1", "--fast", "--artifacts-dir", str(tmp_path)]
        ) == 0
        text = (tmp_path / "fig-6_1.txt").read_text()
        assert text.rstrip("\n") == capsys.readouterr().out.rstrip("\n")
        envelope = json.loads((tmp_path / "fig-6_1.json").read_text())
        assert envelope["experiment"] == "fig-6.1"
        assert envelope["schema_version"] == registry.get("fig-6.1").schema_version
        assert envelope["result"]

    def test_run_jobs_parallel_bit_identical(self, capsys):
        assert main(["run", "table-6.3", "--fast"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "table-6.3", "--fast", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_report_single_experiment(self, tmp_path, capsys):
        code = main(
            ["report", "table-6.3", "--fast", "--output", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "table-6_3.txt").exists()
        envelope = json.loads((tmp_path / "table-6_3.json").read_text())
        assert envelope["experiment"] == "table-6.3"

    def test_report_unknown_experiment(self, capsys):
        assert main(["report", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_size_command(self, capsys):
        assert main(["size", "--target-degree", "30", "--delta", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "dL=18" in out and "s=40" in out
        assert "dL ≥ 26" in out

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "60",
                "--view-size", "12",
                "--d-low", "2",
                "--loss", "0.02",
                "--rounds", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outdegree" in out
        assert "connected=True" in out

    def test_simulate_too_few_nodes(self, capsys):
        assert main(["simulate", "--nodes", "5", "--view-size", "40"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["size", "--target-degree", "4", "--delta", "0.001"],
            ["simulate", "--view-size", "7"],
            ["simulate", "--loss", "1.5"],
            ["simulate", "--nodes", "40", "--rounds", "-1"],
            ["simulate", "--nodes", "60", "--view-size", "12", "--d-low", "4",
             "--rounds", "nan"],
            ["simulate", "--nodes", "60", "--view-size", "12", "--d-low", "4",
             "--rounds", "inf"],
            ["simulate", "--loss", "nan"],
            ["simulate", "--nodes", "5", "--view-size", "40"],
            ["cluster", "--drop", "1.5"],
            ["cluster", "--n", "2"],
            ["cluster", "--view-size", "7"],
            ["cluster", "--failure-detection", "--suspect-after", "0"],
            ["cluster", "--rate", "0"],
            ["cluster", "--kill-wave", "-1"],
            ["cluster", "--kill-wave", "48"],
            ["cluster", "--n", "5", "--kill-wave", "3"],
            ["cluster", "--n", "3", "--kill-wave", "1"],
            ["cluster", "--kill-restart", "-2"],
            ["cluster", "--duration", "-1"],
            ["cluster", "--duration", "inf"],
            ["cluster", "--duration", "nan"],
            ["cluster", "--rate", "inf"],
            ["cluster", "--rate", "nan"],
            ["cluster", "--failure-detection", "--suspect-after", "nan"],
            ["cluster", "--failure-detection", "--fail-after", "inf"],
            ["run", "fig-6.2", "--cell-timeout", "0"],
            ["run", "table-6.3", "--fast", "--cell-timeout", "inf", "--jobs", "2"],
            ["run", "table-6.3", "--fast", "--cell-timeout", "nan", "--jobs", "2"],
            ["report", "--fast", "--jobs", "-5", "table-6.3"],
            ["report", "--fast", "--output", "", "fig-6.2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_value_is_one_error_line_and_status_2(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        """A value the command cannot use ends like an argparse error —
        ``repro <command>: error: …`` on stderr, exit status 2 — not in a
        ``ValueError`` traceback, and not in ``report written to /``."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {argv[0]}: error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "missed, false_positives",
        [([], []), ([4], []), ([], [9]), ([4, 17], [9])],
        ids=["clean", "missed", "false-positive", "both"],
    )
    def test_cluster_names_every_detection_error_on_stderr(
        self, missed, false_positives, capsys, monkeypatch
    ):
        """A wrong verdict fails the run (status 1) with one stderr line
        per offender, never with an empty stderr."""
        from repro.runtime import ClusterReport

        def verdict(config):
            return ClusterReport(
                n=config.n, live_nodes=config.n - 2, duration_s=0.0,
                drop_rate=0.0, actions=0, datagrams_sent=0,
                datagrams_received=0, datagrams_dropped=0,
                datagrams_filtered=0, decode_errors=0, unroutable=0,
                restarts=0, degree_counts={}, degree_violations=[],
                errors=[], fd_enabled=True, killed_nodes=[4, 17],
                fd_detected=[v for v in (4, 17) if v not in missed],
                fd_missed=missed, fd_false_positives=false_positives,
            )

        monkeypatch.setattr(repro.runtime, "run_cluster", verdict)
        code = main(["cluster", "--n", "20", "--kill-wave", "2",
                     "--failure-detection"])
        err = capsys.readouterr().err.splitlines()
        assert code == (1 if missed or false_positives else 0)
        assert [line.split(" (")[0] for line in err] == [
            *(f"DETECTION: missed node {v}" for v in missed),
            *(f"DETECTION: false positive node {v}" for v in false_positives),
        ]

    def test_cluster_names_a_short_kill_wave_on_stderr(self, capsys, monkeypatch):
        from repro.runtime import ClusterReport

        def short_wave(config):
            return ClusterReport(
                n=config.n, live_nodes=2, duration_s=0.0, drop_rate=0.0,
                actions=0, datagrams_sent=0, datagrams_received=0,
                datagrams_dropped=0, datagrams_filtered=0, decode_errors=0,
                unroutable=0, restarts=0, degree_counts={}, degree_violations=[],
                errors=[], wave_shortfall=2,
            )

        monkeypatch.setattr(repro.runtime, "run_cluster", short_wave)
        assert main(["cluster", "--n", "20", "--kill-wave", "4"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("KILL WAVE: 2 victims short of 4 ")

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_executor_flag_is_gone(self, command, capsys):
        """Cells run inline at ``--jobs 1`` and in a process pool above;
        there is no flag to pick another executor."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "fig-6.2", "--fast", "--executor", "inline"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --executor" in capsys.readouterr().err

    def test_no_subcommand_maintains_a_store(self, capsys):
        """Journal and solve-cache entries are content-addressed, so there
        is nothing to prune: the subcommands are the six below."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{list,run,simulate,report,cluster,size}" in capsys.readouterr().out

    def test_partition_groups_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--partition-groups", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partition-groups" in capsys.readouterr().err

    def test_value_error_inside_a_cell_is_not_a_rejected_value(self, monkeypatch):
        """Only construction from command-line values is checked: a
        ``ValueError`` a cell raises while running surfaces as itself."""
        from dataclasses import replace

        from repro.runner import SweepError

        def cell(point, seed, *, backend="reference"):
            raise ValueError("raised while running")

        spec = registry.get("fig-6.2")
        monkeypatch.setitem(registry._SPECS, spec.name, replace(spec, cell=cell))
        with pytest.raises(SweepError, match="raised while running"):
            main(["run", "fig-6.2", "--fast"])

    def test_simulate_array_backend(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "60",
                "--view-size", "12",
                "--d-low", "2",
                "--loss", "0.02",
                "--rounds", "40",
                "--backend", "array",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outdegree" in out
        assert "connected=True" in out

    def test_registry_covers_design_index(self):
        """Every experiment family from DESIGN.md has a registry entry."""
        expected = {
            "fig-6.1", "fig-6.2", "fig-6.3", "fig-6.4",
            "table-6.3", "table-6.4", "cor-6.14", "lemma-6.6",
            "lemma-7.5", "lemma-7.6", "lemma-7.9", "lemma-7.15",
            "connectivity", "load-balance", "baselines",
        }
        assert expected <= set(registry.names(include_aliases=True))


class TestTelemetryFlags:
    def test_trace_and_metrics_flags_parse(self):
        for command in (["run", "fig-6.1"], ["report"], ["simulate"]):
            args = build_parser().parse_args(
                [*command, "--trace", "t.jsonl", "--metrics-out", "m.json"]
            )
            assert args.trace == "t.jsonl"
            assert args.metrics_out == "m.json"

    def test_run_emits_trace_metrics_and_summary(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "run", "fig-6.1", "--fast",
            "--trace", str(trace), "--metrics-out", str(metrics),
            "--artifacts-dir", str(tmp_path / "arts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry: cells=1 completed=1" in out
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        types = [record["type"] for record in records]
        assert types[0] == "trace.meta"
        assert "experiment.start" in types and "experiment.end" in types
        assert "sweep.start" in types and "sweep.end" in types
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["sweep.completed"] == 1
        assert "phase.cell_run" in snapshot["timers"]
        # the artifacts dir gains the per-experiment metrics file
        artifact = json.loads(
            (tmp_path / "arts" / "fig-6_1.metrics.json").read_text()
        )
        assert artifact["counters"]["sweep.completed"] == 1

    def test_run_envelope_carries_sweep_stats(self, tmp_path):
        assert main([
            "run", "fig-6.1", "--fast", "--artifacts-dir", str(tmp_path),
        ]) == 0
        envelope = json.loads((tmp_path / "fig-6_1.json").read_text())
        assert envelope["sweep"]["last_stats"]["completed"] == 1
        assert envelope["sweep"]["last_failures"] == []

    def test_output_bit_identical_with_telemetry(self, tmp_path, capsys):
        assert main([
            "run", "table-6.3", "--fast",
            "--artifacts-dir", str(tmp_path / "plain"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "table-6.3", "--fast",
            "--artifacts-dir", str(tmp_path / "instrumented"),
            "--trace", str(tmp_path / "t.jsonl"),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert (
            (tmp_path / "plain" / "table-6_3.txt").read_text()
            == (tmp_path / "instrumented" / "table-6_3.txt").read_text()
        )
        assert (
            (tmp_path / "plain" / "table-6_3.json").read_text()
            == (tmp_path / "instrumented" / "table-6_3.json").read_text()
        )

    def test_metrics_merged_across_jobs(self, tmp_path, capsys):
        assert main([
            "run", "table-6.3", "--fast", "--jobs", "2",
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        capsys.readouterr()
        snapshot = json.loads((tmp_path / "m.json").read_text())
        completed = snapshot["counters"]["sweep.completed"]
        assert completed >= 1
        # one worker-side cell_run phase per completed cell made it back
        assert snapshot["timers"]["phase.cell_run"]["count"] == completed

    def test_simulate_with_telemetry(self, tmp_path, capsys):
        assert main([
            "simulate", "--nodes", "60", "--view-size", "12", "--d-low", "2",
            "--rounds", "10", "--backend", "array",
            "--trace", str(tmp_path / "t.jsonl"),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert "telemetry:" in capsys.readouterr().out
        snapshot = json.loads((tmp_path / "m.json").read_text())
        assert snapshot["counters"]["engine.actions"] == 600
        assert snapshot["counters"]["kernel.array.actions"] == 600

    def test_report_writes_per_experiment_metrics(self, tmp_path, capsys):
        assert main([
            "report", "fig-6.1", "table-6.3", "--fast",
            "--output", str(tmp_path),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        for slug in ("fig-6_1", "table-6_3"):
            per = json.loads((tmp_path / f"{slug}.metrics.json").read_text())
            assert per["counters"]["sweep.completed"] >= 1
        combined = json.loads((tmp_path / "m.json").read_text())
        total = sum(
            json.loads((tmp_path / f"{slug}.metrics.json").read_text())[
                "counters"
            ]["sweep.completed"]
            for slug in ("fig-6_1", "table-6_3")
        )
        assert combined["counters"]["sweep.completed"] == total


class Boom(Exception):
    """Raised by a command body after it has done its real work."""


#: Per command whose lifetime ``cli._telemetry`` owns: a small invocation,
#: and the (module, function) its body runs through.
LIFETIMES = {
    "run": (
        ["run", "fig-6.1", "--fast", "--jobs", "2", "--metrics-port", "0"],
        (registry, "execute"),
    ),
    "report": (
        ["report", "fig-6.1", "table-6.3", "--fast", "--jobs", "2",
         "--metrics-port", "0"],
        (registry, "execute"),
    ),
    "simulate": (
        ["simulate", "--nodes", "60", "--view-size", "12", "--d-low", "2",
         "--rounds", "5"],
        (repro.experiments.common, "build_sf_system"),
    ),
    "cluster": (
        ["cluster", "--n", "8", "--duration", "0.3", "--seed", "1"],
        (repro.runtime, "run_cluster"),
    ),
}


class TestTelemetryLifetime:
    """Whatever the command and however its body ends, nothing it opened
    for telemetry outlives ``main``."""

    @pytest.mark.parametrize("fails", [False, True], ids=["clean", "raising"])
    @pytest.mark.parametrize("command", sorted(LIFETIMES))
    def test_nothing_outlives_the_command(
        self, command, fails, tmp_path, capsys, monkeypatch
    ):
        argv, (module, name) = LIFETIMES[command]
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        argv = [*argv, "--trace", str(trace), "--metrics-out", str(metrics)]
        if command == "report":
            argv += ["--output", str(tmp_path / "report")]
        tracers = []

        class SpiedTracer(obs.Tracer):
            def __init__(self, path):
                super().__init__(path)
                tracers.append(self)

        monkeypatch.setattr(obs, "Tracer", SpiedTracer)
        if fails:
            real = getattr(module, name)

            def failing(*args, **kwargs):
                real(*args, **kwargs)
                raise Boom

            monkeypatch.setattr(module, name, failing)
            with pytest.raises(Boom):
                main(argv)
        else:
            assert main(argv) == 0
        captured = capsys.readouterr()

        assert not obs.get_telemetry().active
        assert multiprocessing.active_children() == []
        # The trace is whole and closed: nothing can be appended to it.
        (tracer,) = tracers
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == tracer.records_written
        tracer.emit("late")
        assert len(trace.read_text().splitlines()) == len(records)
        # Summary and --metrics-out are for runs that ended cleanly.
        assert metrics.exists() == (not fails)
        assert ("telemetry: cells=" in captured.out) == (not fails)
        announced = re.search(r"http://127\.0\.0\.1:(\d+)/metrics", captured.err)
        assert (announced is not None) == ("--metrics-port" in argv)
        if announced:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(
                    ("127.0.0.1", int(announced.group(1))), timeout=1.0
                ).close()

    def test_run_is_report_of_one(self, tmp_path, capsys):
        assert main([
            "run", "table-6.3", "--fast", "--artifacts-dir", str(tmp_path / "run"),
        ]) == 0
        assert main([
            "report", "table-6.3", "--fast", "--output", str(tmp_path / "report"),
        ]) == 0
        capsys.readouterr()
        assert (
            (tmp_path / "run" / "table-6_3.txt").read_bytes()
            == (tmp_path / "report" / "table-6_3.txt").read_bytes()
        )
        envelopes = [
            json.loads((tmp_path / side / "table-6_3.json").read_text())
            for side in ("run", "report")
        ]
        assert envelopes[0]["result"] == envelopes[1]["result"]
