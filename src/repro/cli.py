"""Command-line interface: run experiments and simulations from the shell.

Usage::

    python -m repro list
    python -m repro list --json
    python -m repro run fig-6.1
    python -m repro run table-6.4 --fast
    python -m repro run fig-6.3 --fast --artifacts-dir artifacts/
    python -m repro report --fast --output report/
    python -m repro simulate --nodes 500 --view-size 40 --d-low 18 \
        --loss 0.01 --rounds 300
    python -m repro size --target-degree 30 --delta 0.01 --loss 0.01

Every experiment is an :class:`repro.experiments.registry.ExperimentSpec`
(see docs/architecture.md); the CLI is a thin veneer over the registry.
``run`` executes one experiment through :class:`repro.runner.SweepRunner`
and prints the same rows/series the paper reports; ``--fast`` selects
the CI-sized grid.  ``simulate`` runs a custom S&F deployment and
summarizes its steady state; ``size`` applies the §6.3 and §7.4 sizing
rules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.core.params import SFParams

# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


class _Rejected(Exception):
    """A command-line value the command cannot use (exit status 2)."""


@contextmanager
def _rejecting():
    """Report the ``ValueError`` of a constructor fed command-line values
    as a rejected value.  Wrap the construction only: a ``ValueError``
    raised while the command *runs* must surface as what it is."""
    try:
        yield
    except ValueError as error:
        raise _Rejected(str(error)) from None


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import registry

    specs = registry.list_specs()
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    print("Available experiments (see docs/paper_map.md for the paper mapping):")
    width = max(
        len(name)
        for spec in specs
        for name in (spec.name, *spec.aliases)
    )
    for spec in specs:
        print(f"  {spec.name:<{width}}  {spec.anchor} — {spec.description}")
        for alias in spec.aliases:
            print(f"  {alias:<{width}}  alias for {spec.name}")
    return 0


def _resolve_jobs(jobs: int) -> int:
    """``--jobs 0`` means "use the machine": one worker per CPU, capped."""
    if jobs < 0:
        raise ValueError(f"--jobs must be 0 or more, got {jobs}")
    if jobs > 0:
        return jobs
    from repro.runner import default_jobs

    return default_jobs()


def _make_runner(args: argparse.Namespace):
    """A :class:`SweepRunner` configured from the fault-tolerance flags."""
    from repro.runner import CheckpointStore, SweepRunner

    checkpoint = None
    if args.checkpoint_dir:
        checkpoint = CheckpointStore(args.checkpoint_dir)
    with _rejecting():
        return SweepRunner(
            jobs=_resolve_jobs(args.jobs),
            on_error=args.on_error,
            cell_timeout=args.cell_timeout,
            checkpoint=checkpoint,
        )


def _write_json(path, obj) -> None:
    """Every JSON file the CLI writes: pretty, key-sorted, parents created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


def _telemetry_summary(registry, runner=None) -> str:
    """The one-line summary ``run``/``simulate``/``report`` print."""
    snap = registry.snapshot()
    counters = snap["counters"]
    cell_run = snap["timers"].get("phase.cell_run", {})
    wall = cell_run.get("total") or 0.0
    cpu = cell_run.get("cpu_total") or 0.0
    line = (
        "telemetry:"
        f" cells={counters.get('sweep.cells', 0)}"
        f" completed={counters.get('sweep.completed', 0)}"
        f" resumed={counters.get('sweep.resumed', 0)}"
        f" skipped={counters.get('sweep.skipped', 0)}"
        f" actions={counters.get('engine.actions', 0)}"
        f" cell_run={wall:.2f}s"
        f" cpu={cpu:.2f}s"
    )
    if runner is not None and runner.last_stats.backend:
        line += f" backend={runner.last_stats.backend}"
    return line


@contextmanager
def _telemetry(args: argparse.Namespace, runner=None):
    """The command's telemetry lifetime, from its telemetry flags.

    Any of ``--trace`` / ``--metrics-out`` / ``--metrics-port`` turns the
    metrics registry on (the trace alone could not feed the one-line
    summary, the ``<slug>.metrics.json`` artifact, or ``/metrics``) and
    yields the installed telemetry; with every flag absent the block runs
    under the zero-cost disabled default and gets ``None``.  With
    ``--metrics-port`` a live endpoint serves ``/metrics`` and the
    ``runner``'s ``/progress``; its address goes to stderr so scripts
    scraping stdout for experiment output are unaffected.  However the
    block ends, the endpoint stops, the trace file closes and the
    telemetry is uninstalled; ``--metrics-out`` and the summary line are
    written only when it ends cleanly.
    """
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    port = getattr(args, "metrics_port", None)
    if not trace and not metrics_out and port is None:
        yield None
        return
    from repro import obs

    registry = obs.Registry()
    with ExitStack() as stack:
        tracer = None
        if trace:
            tracer = obs.Tracer(trace)
            stack.callback(tracer.close)
        telemetry = stack.enter_context(
            obs.activated(obs.Telemetry(registry, tracer))
        )
        if port is not None:
            endpoint = stack.enter_context(
                obs.MetricsEndpoint(
                    registry, runner.progress_snapshot if runner else None, port=port
                )
            )
            print(
                f"metrics endpoint: http://127.0.0.1:{endpoint.port}/metrics "
                f"(progress at /progress)",
                file=sys.stderr,
            )
        yield telemetry
        if metrics_out:
            _write_json(metrics_out, registry.snapshot())
        print(_telemetry_summary(registry, runner=runner))


def _print_failures(sweep_runner) -> None:
    """Summarize cells skipped under ``--on-error skip`` (to stderr)."""
    for failure in sweep_runner.last_failures:
        print(
            f"WARNING: skipped point={failure.cell.point!r} "
            f"replication={failure.cell.replication}: {failure.error}",
            file=sys.stderr,
        )


def _execute(spec, args: argparse.Namespace, sweep_runner):
    """Run ``spec`` on the command's runner; returns the result.

    Backend warnings from the registry (a non-default ``--backend`` on an
    analytic experiment) are re-routed to stderr so they are visible even
    where Python's once-per-location warning filter would drop them.
    """
    from repro.experiments import registry

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = registry.execute(
            spec, fast=args.fast, backend=args.backend, runner=sweep_runner
        )
    for warning in caught:
        print(f"WARNING: {warning.message}", file=sys.stderr)
    _print_failures(sweep_runner)
    return result


def _write_artifacts(
    spec, result, text: str, directory, runner=None, registry=None
) -> None:
    """Archive ``<slug>.txt``, the versioned ``<slug>.json`` envelope
    (with the sweep's stats/failures when ``runner`` is given), and —
    when a metrics ``registry`` is active — ``<slug>.metrics.json``."""
    output_dir = Path(directory)
    output_dir.mkdir(parents=True, exist_ok=True)
    slug = spec.name.replace(".", "_")
    (output_dir / f"{slug}.txt").write_text(text + "\n")
    _write_json(output_dir / f"{slug}.json", spec.to_json(result, runner=runner))
    if registry is not None:
        _write_json(output_dir / f"{slug}.metrics.json", registry.snapshot())


def _run_specs(names, args: argparse.Namespace, directory, *, banner: bool) -> int:
    """Execute, print and archive each named experiment on one runner.

    ``repro report`` is this over many names with ``banner`` framing (a
    header per experiment, a closing line); ``repro run`` is the report
    of one, bare.  One runner, hence one worker pool, serves the whole
    command, and ``/progress`` follows whichever sweep it is running.
    """
    from repro import obs
    from repro.experiments import registry

    specs = []
    unknown = []
    for name in names:
        try:
            specs.append(registry.get(name))
        except registry.UnknownExperimentError:
            unknown.append(name)
    if unknown:
        if banner:
            print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        else:
            print(
                f"unknown experiment {unknown[0]!r}; try 'python -m repro list'",
                file=sys.stderr,
            )
        return 2
    with _make_runner(args) as runner, _telemetry(args, runner) as telemetry:
        for spec in specs:
            if banner:
                print(f"== {spec.name} ==")
            if telemetry is None:
                per_registry = None
                result = _execute(spec, args, runner)
            else:
                # Fresh registry per experiment (so <slug>.metrics.json is
                # that experiment's alone) under the command's tracer; the
                # command's registry gets each snapshot merged back for
                # --metrics-out and the summary line.
                per_registry = obs.Registry()
                with obs.activated(obs.Telemetry(per_registry, telemetry.tracer)):
                    result = _execute(spec, args, runner)
                telemetry.registry.merge_snapshot(per_registry.snapshot())
            text = result.format()
            print(text)
            if banner:
                print()
            if directory:
                _write_artifacts(
                    spec, result, text, directory,
                    runner=runner, registry=per_registry,
                )
    if banner:
        print(f"report written to {directory}/")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_specs([args.experiment], args, args.artifacts_dir, banner=False)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.common import build_sf_system
    from repro.metrics.degrees import degree_summary
    from repro.metrics.graph_stats import graph_statistics

    with _rejecting():
        params = SFParams(view_size=args.view_size, d_low=args.d_low)
    if params.default_bootstrap_degree >= args.nodes:
        raise _Rejected(
            f"need more nodes than the bootstrap outdegree "
            f"{params.default_bootstrap_degree}, got --nodes {args.nodes}"
        )
    if not 0 <= args.rounds < math.inf:
        raise _Rejected(f"--rounds must be finite and nonnegative, got {args.rounds}")
    with _telemetry(args):
        with _rejecting():
            protocol, engine = build_sf_system(
                args.nodes,
                params,
                loss_rate=args.loss,
                seed=args.seed,
                backend=args.backend,
            )
        try:
            engine.run_rounds(args.rounds)
            protocol.check_invariant()

            summary = degree_summary(protocol)
            stats = graph_statistics(protocol, compute_diameter=args.nodes <= 2000)
            print(f"n={args.nodes} s={args.view_size} dL={args.d_low} "
                  f"loss={args.loss} rounds={args.rounds}")
            print(f"outdegree {summary.outdegree_mean:.1f} ± {summary.outdegree_std:.1f}, "
                  f"indegree {summary.indegree_mean:.1f} ± {summary.indegree_std:.1f}")
            print(f"dup {protocol.stats.duplication_probability():.4f}, "
                  f"del {protocol.stats.deletion_probability():.4f}, "
                  f"dependent {protocol.dependent_fraction():.4f}")
            print(f"connected={stats.weakly_connected} "
                  f"diameter={stats.undirected_diameter} "
                  f"self-edges={stats.self_edges}")
        finally:
            # The sharded kernel holds worker processes and shared memory.
            if hasattr(protocol, "close"):
                protocol.close()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a set of experiments, archiving text and JSON per experiment."""
    from repro.experiments import registry

    if not args.output:
        raise _Rejected("--output needs a directory name")
    names = args.experiments or registry.names()
    return _run_specs(names, args, args.output, banner=True)


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Boot a localhost UDP cluster and print (and check) its report.

    Exit status 1 means the run was not clean — a view broke the
    Observation 5.1 degree bounds, a node task raised, the kill wave found
    fewer live nodes than it asks for, or (with
    ``--failure-detection``) a killed node was missed or a live one
    falsely declared FAILED — which is what the CI ``cluster-smoke`` job
    keys on.  Each cause prints one stderr line per offender.
    """
    from repro.runtime import ClusterConfig, run_cluster

    with _rejecting():
        config = ClusterConfig(
            n=args.n,
            view_size=args.view_size,
            d_low=args.d_low,
            drop_rate=args.drop,
            rate=args.rate,
            duration_s=args.duration,
            seed=args.seed,
            kill_restart=args.kill_restart,
            kill_wave=args.kill_wave,
            failure_detection=args.failure_detection,
            suspect_after_s=args.suspect_after,
            fail_after_s=args.fail_after,
        )
    with _telemetry(args):
        report = run_cluster(config)
        print(report.format())
        if args.json:
            from dataclasses import asdict

            _write_json(args.json, asdict(report))
    if not report.ok():
        for violation in report.degree_violations:
            print(f"DEGREE VIOLATION: {violation}", file=sys.stderr)
        for error in report.errors:
            print(f"NODE ERROR: {error}", file=sys.stderr)
        if report.wave_shortfall:
            print(f"KILL WAVE: {report.wave_shortfall} victims short of "
                  f"{config.kill_wave} (nodes had stopped before the one-third "
                  f"mark); nobody was killed", file=sys.stderr)
        for victim in report.fd_missed:
            print(f"DETECTION: missed node {victim} (killed, not FAILED by a "
                  f"survivor quorum)", file=sys.stderr)
        for node in report.fd_false_positives:
            print(f"DETECTION: false positive node {node} (live, FAILED by a "
                  f"quorum of its peers)", file=sys.stderr)
        return 1
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.analysis.connectivity import min_d_low_for_connectivity
    from repro.core.thresholds import select_thresholds

    with _rejecting():
        selection = select_thresholds(args.target_degree, args.delta)
        required = min_d_low_for_connectivity(args.loss, args.delta, args.epsilon)
    print(f"§6.3 rule: d̂={args.target_degree}, δ={args.delta} → "
          f"dL={selection.d_low}, s={selection.view_size} "
          f"(tails {selection.low_tail:.4f}/{selection.high_tail:.4f})")
    print(f"§7.4 connectivity at l={args.loss}, ε={args.epsilon:.0e}: dL ≥ {required}")
    d_low = max(selection.d_low, required)
    view_size = max(selection.view_size, d_low + 6)
    print(f"recommended: dL={d_low}, s={view_size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Correctness of gossip-based "
        "membership under message loss' (Gurevich & Keidar, PODC 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (name, anchor, aliases, schema)",
    )
    list_parser.set_defaults(func=_cmd_list)

    from repro.experiments.common import BACKENDS

    backend_kwargs = dict(
        choices=BACKENDS,
        default="reference",
        help="simulation backend: 'reference' (object-per-node, per action), "
        "'array' (fused vectorized numpy kernel), "
        "'sharded' (shared-memory array state with per-shard apply "
        "workers, for very large n), or 'reference-kernel' "
        "(object-per-node under the batched kernel discipline); analytic "
        "experiments warn when a non-default backend cannot apply",
    )
    jobs_kwargs = dict(
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment's cell grid (default 1 = "
        "serial; 0 = one per CPU, capped at 8); results are identical at "
        "any value",
    )
    on_error_kwargs = dict(
        choices=["raise", "skip"],
        default="raise",
        help="cell failure policy: a cell runs once; 'raise' fails fast on "
        "the first failed cell (default); 'skip' drops the cell and keeps "
        "the rest",
    )
    cell_timeout_kwargs = dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; an overdue cell counts as failed "
        "(needs --jobs >= 2: cells then run in a process pool)",
    )
    checkpoint_kwargs = dict(
        default=None,
        metavar="DIR",
        help="journal each completed cell to DIR; re-running the same "
        "experiment resumes from the journal with bit-identical output",
    )
    trace_kwargs = dict(
        default=None,
        metavar="PATH",
        help="write schema-versioned JSONL trace records (spans/events for "
        "engine rounds, kernel batches, sweep cells, caches) to PATH; "
        "draws no randomness, so seeded output is unchanged",
    )
    metrics_out_kwargs = dict(
        default=None,
        metavar="PATH",
        help="write the aggregated metrics registry (counters, gauges, "
        "histograms, timers — worker processes included) to PATH as JSON",
    )
    metrics_port_kwargs = dict(
        type=int,
        default=None,
        metavar="PORT",
        help="serve live OpenMetrics at http://127.0.0.1:PORT/metrics and "
        "sweep progress JSON at /progress while the command runs (0 = "
        "pick a free port, printed to stderr); implies metrics collection",
    )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_parser.add_argument(
        "--fast", action="store_true", help="shrink sizes for a quick look"
    )
    run_parser.add_argument("--backend", **backend_kwargs)
    run_parser.add_argument("--jobs", **jobs_kwargs)
    run_parser.add_argument("--on-error", **on_error_kwargs)
    run_parser.add_argument("--cell-timeout", **cell_timeout_kwargs)
    run_parser.add_argument("--checkpoint-dir", **checkpoint_kwargs)
    run_parser.add_argument("--metrics-port", **metrics_port_kwargs)
    run_parser.add_argument(
        "--artifacts-dir",
        default=None,
        metavar="DIR",
        help="also archive <name>.txt and the versioned <name>.json to DIR "
        "(plus <name>.metrics.json when telemetry is on)",
    )
    run_parser.add_argument("--trace", **trace_kwargs)
    run_parser.add_argument("--metrics-out", **metrics_out_kwargs)
    run_parser.set_defaults(func=_cmd_run)

    simulate_parser = sub.add_parser("simulate", help="run a custom S&F deployment")
    simulate_parser.add_argument("--nodes", type=int, default=500)
    simulate_parser.add_argument("--view-size", type=int, default=40)
    simulate_parser.add_argument("--d-low", type=int, default=18)
    simulate_parser.add_argument("--loss", type=float, default=0.01)
    simulate_parser.add_argument("--rounds", type=float, default=300.0)
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.add_argument("--backend", **backend_kwargs)
    simulate_parser.add_argument("--trace", **trace_kwargs)
    simulate_parser.add_argument("--metrics-out", **metrics_out_kwargs)
    simulate_parser.set_defaults(func=_cmd_simulate)

    report_parser = sub.add_parser(
        "report", help="run experiments and archive text+JSON results"
    )
    report_parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: all)",
    )
    report_parser.add_argument("--output", default="report", help="output directory")
    report_parser.add_argument("--fast", action="store_true")
    report_parser.add_argument("--backend", **backend_kwargs)
    report_parser.add_argument("--jobs", **jobs_kwargs)
    report_parser.add_argument("--on-error", **on_error_kwargs)
    report_parser.add_argument("--cell-timeout", **cell_timeout_kwargs)
    report_parser.add_argument("--checkpoint-dir", **checkpoint_kwargs)
    report_parser.add_argument("--metrics-port", **metrics_port_kwargs)
    report_parser.add_argument("--trace", **trace_kwargs)
    report_parser.add_argument("--metrics-out", **metrics_out_kwargs)
    report_parser.set_defaults(func=_cmd_report)

    cluster_parser = sub.add_parser(
        "cluster", help="boot a localhost UDP cluster (real sockets, real loss)"
    )
    cluster_parser.add_argument("--n", type=int, default=50, help="number of nodes")
    cluster_parser.add_argument("--view-size", type=int, default=8)
    cluster_parser.add_argument("--d-low", type=int, default=2)
    cluster_parser.add_argument(
        "--drop", type=float, default=0.05,
        help="receiver-side drop probability per datagram",
    )
    cluster_parser.add_argument(
        "--rate", type=float, default=40.0,
        help="per-node initiate actions per second",
    )
    cluster_parser.add_argument("--duration", type=float, default=3.0)
    cluster_parser.add_argument("--seed", type=int, default=None)
    cluster_parser.add_argument(
        "--kill-restart", type=int, default=0, metavar="K",
        help="kill K random nodes mid-run and rejoin them via the introducer",
    )
    cluster_parser.add_argument(
        "--kill-wave", type=int, default=0, metavar="K",
        help="kill K random nodes (at most n - 3) for good at the 1/3 mark "
        "(the failure-detection scenario: survivors must declare them FAILED)",
    )
    cluster_parser.add_argument(
        "--failure-detection", action="store_true",
        help="run the SWIM-style failure detector on every node, liveness "
        "gossip piggybacked on the S&F datagrams; the report then carries "
        "the detection verdict and a wrong verdict fails the run",
    )
    cluster_parser.add_argument(
        "--suspect-after", type=float, default=1.5, metavar="S",
        help="seconds without liveness evidence before a peer is SUSPECTED",
    )
    cluster_parser.add_argument(
        "--fail-after", type=float, default=0.75, metavar="S",
        help="seconds in SUSPECTED without refutation before FAILED",
    )
    cluster_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full report as JSON to PATH",
    )
    cluster_parser.add_argument("--trace", **trace_kwargs)
    cluster_parser.add_argument("--metrics-out", **metrics_out_kwargs)
    cluster_parser.set_defaults(func=_cmd_cluster)

    size_parser = sub.add_parser("size", help="apply the paper's sizing rules")
    size_parser.add_argument("--target-degree", type=int, default=30)
    size_parser.add_argument("--delta", type=float, default=0.01)
    size_parser.add_argument("--loss", type=float, default=0.01)
    size_parser.add_argument("--epsilon", type=float, default=1e-30)
    size_parser.set_defaults(func=_cmd_size)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush inside the try so a closed pipe surfaces here, not at exit.
        sys.stdout.flush()
    except _Rejected as rejected:
        print(f"repro {args.command}: error: {rejected}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``repro list | head``).  Python flushes
        # stdout again at exit; point it at devnull so that cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
