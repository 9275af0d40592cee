"""Workload ``report-fast``: the command a user types, cold then resumed.

``repro report --fast --jobs 2 --checkpoint-dir D --output O <specs>`` on
a cold solve cache (primary phase), then the identical command against
the populated ``D`` (secondary phase).  ``--seed`` shuffles the order the
specs are named in: the work is the same, which spec pays for a shared
degree-MC solve is not.

A whole pass in a child process is 1-5 s long — as long as the host's
interference spells, too long for a probe to normalise — and so are the
0.5-0.8 s object-path simulation cells of four of the specs; their
run-to-run spread was 13-25 % however it was summarised.  The gated
passes therefore go through the same entry point, ``repro.cli.main``, in
this process, one call per spec over the specs whose calls are short
(``REPORT_SPECS_GATED``: the markov solves, the global-MC enumeration,
runner and checkpoint I/O), ``--jobs 1`` so that the work stays on the
probed core, with a host-speed probe between calls.  Cold passes on fresh
directories alternate with resume passes against them until ``--seconds``
is spent; ``wall_s`` / ``aux_s`` are the sum over specs of the median
normalised call.  What they leave out is measured elsewhere: interpreter,
package and registry start-up is ``setup_s`` (``python -m repro list`` in
a child), the object path is ``sim-default-2k``, and one real child cold
pass and one child resume pass over all thirteen specs with ``--jobs 2``
open the run — their text artifacts must equal the in-process ones byte
for byte, and their raw times are reported as ``cli_cold_s`` /
``cli_resume_s``.

Traced, the same specs run through ``registry.execute`` on the inline
backend, once without wrappers and once with wrappers around the runner,
the checkpoint store, the solve cache and the Markov solvers, followed by
stand-alone probes of the layers the subset does not reach (conductance,
mixing times, the three sweep backends on a cold cache).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    Checks,
    HostSpeed,
    RunContext,
    WorkloadResult,
    child_env,
    digest_text,
    gc_parked,
    median,
    per_call_us,
    ratio,
    span_count,
    span_of,
    span_seconds,
)
from vocabulary import REPORT_SPECS, REPORT_SPECS_GATED, REPORT_SPECS_QUICK, spec_metric

JOBS = 2
SETUPS_FULL, SETUPS_QUICK = 4, 1
MIN_ROUNDS_FULL, MIN_ROUNDS_QUICK = 3, 1
RESUMES_PER_COLD = 3
CONDUCTANCE_SAMPLES = 8
MIXING_EPSILON = 0.3


def _slug(spec: str) -> str:
    return spec.replace(".", "_")


def _run_child(arguments: List[str], solve_cache: Path) -> Tuple[float, int, str]:
    """One ``python -m repro`` child: wall, exit code, stderr tail."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        env=child_env(solve_cache),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=150,
    )
    return time.perf_counter() - start, done.returncode, done.stderr[-400:]


def _report_arguments(
    specs: List[str], checkpoints: Path, output: Path, jobs: int = JOBS
) -> List[str]:
    return [
        "report", "--fast", "--jobs", str(jobs),
        "--checkpoint-dir", str(checkpoints), "--output", str(output), *specs,
    ]


def _texts(output: Path, specs: List[str]) -> Dict[str, str]:
    texts = {}
    for spec in specs:
        path = output / f"{_slug(spec)}.txt"
        texts[spec] = path.read_text() if path.exists() else ""
    return texts


def _texts_digest(texts: Dict[str, str]) -> str:
    return digest_text(f"{spec}\n{texts[spec]}" for spec in sorted(texts))


def _count_cells(output: Path, specs: List[str], checks: Checks, resumed: bool) -> None:
    """Account every sweep cell from the JSON envelopes' ``sweep`` section."""
    for spec in specs:
        path = output / f"{_slug(spec)}.json"
        try:
            stats = json.loads(path.read_text())["sweep"]["last_stats"]
        except (OSError, ValueError, KeyError):
            checks.check(f"artifact-{spec}", False, f"unreadable {path.name}")
            continue
        settled = stats["resumed"] if resumed else stats["completed"]
        checks.count(stats["total"], stats["total"] - settled)


def _cold_cache(ctx: RunContext) -> None:
    """Point the process-wide solve cache at a fresh, empty directory."""
    from repro.markov.solve_cache import DEFAULT_CACHE

    os.environ["REPRO_SOLVE_CACHE_DIR"] = str(ctx.dirs.fresh("solve-cache"))
    DEFAULT_CACHE.clear_memory()


@dataclass
class Calls:
    """Per-spec samples of one kind of in-process pass (cold or resume)."""

    wall: Dict[str, List[float]] = field(default_factory=dict)
    cpu: Dict[str, List[float]] = field(default_factory=dict)
    raw: Dict[str, List[float]] = field(default_factory=dict)
    passes: int = 0
    failures: int = 0

    def total(self, column: Dict[str, List[float]]) -> float:
        """One pass: the sum over specs of the median call."""
        return sum(median(values) for values in column.values())


def _in_process_pass(
    specs, checkpoints: Path, output: Path, speed: HostSpeed, into: Calls
) -> None:
    """``repro.cli.main`` once per spec, a host-speed probe between calls."""
    from repro import cli

    into.passes += 1
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), gc_parked():
        speed.resync()
        for spec in specs:
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                code = cli.main(_report_arguments([spec], checkpoints, output, jobs=1))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code or 1
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            factor = speed.factor()
            into.wall.setdefault(spec, []).append(wall * factor)
            into.cpu.setdefault(spec, []).append(cpu * factor)
            into.raw.setdefault(spec, []).append(wall)
            into.failures += code != 0


def run(ctx: RunContext) -> WorkloadResult:
    specs = list(REPORT_SPECS_QUICK if ctx.quick else REPORT_SPECS)
    random.Random(ctx.seed).shuffle(specs)
    if ctx.trace:
        return _run_traced(ctx, specs)
    gated = [spec for spec in specs if ctx.quick or spec in REPORT_SPECS_GATED]
    checks = Checks()
    dirs = ctx.dirs

    listings: List[float] = []
    for _ in range(SETUPS_QUICK if ctx.quick else SETUPS_FULL):
        wall, code, err = _run_child(["list"], dirs.fresh("solve-cache"))
        checks.check("repro-list-exit-0", code == 0, err)
        listings.append(wall)

    began = time.perf_counter()
    cache, checkpoints, output = (
        dirs.fresh("solve-cache"), dirs.fresh("checkpoints"), dirs.fresh("cli-cold-out")
    )
    cli_cold_s, code, err = _run_child(_report_arguments(specs, checkpoints, output), cache)
    checks.check("cli-cold-pass-exit-0", code == 0, err)
    _count_cells(output, specs, checks, resumed=False)
    reference = _texts(output, specs)
    checks.check("cli-text-artifacts-written", all(reference.values()))
    output = dirs.fresh("cli-resume-out")
    cli_resume_s, code, err = _run_child(_report_arguments(specs, checkpoints, output), cache)
    checks.check("cli-resume-pass-exit-0", code == 0, err)
    _count_cells(output, specs, checks, resumed=True)
    checks.check("cli-resume-text-byte-identical", _texts(output, specs) == reference)
    gated_reference = {spec: reference[spec] for spec in gated}

    speed = HostSpeed()
    cold, resume = Calls(), Calls()
    min_rounds = MIN_ROUNDS_QUICK if ctx.quick else MIN_ROUNDS_FULL
    while cold.passes < min_rounds or time.perf_counter() - began < ctx.seconds:
        _cold_cache(ctx)
        checkpoints, output = dirs.fresh("checkpoints"), dirs.fresh("cold-out")
        _in_process_pass(gated, checkpoints, output, speed, cold)
        _count_cells(output, gated, checks, resumed=False)
        checks.check("cold-text-equals-cli-text", _texts(output, gated) == gated_reference)
        for _ in range(RESUMES_PER_COLD):
            output = dirs.fresh("resume-out")
            _in_process_pass(gated, checkpoints, output, speed, resume)
        _count_cells(output, gated, checks, resumed=True)
        checks.check("resume-text-equals-cli-text", _texts(output, gated) == gated_reference)
    checks.check("in-process-calls-exit-0", cold.failures + resume.failures == 0)

    return WorkloadResult(
        metrics={
            "setup_s": median(listings),
            "wall_s": cold.total(cold.wall),
            "aux_s": resume.total(resume.wall),
            "cpu_s": cold.total(cold.cpu),
        },
        checks=checks,
        digest=_texts_digest(reference),
        info={
            "specs": len(specs),
            "gated_specs": len(gated),
            "cold_passes": cold.passes,
            "resume_passes": resume.passes,
            "cli_cold_s": cli_cold_s,
            "cli_resume_s": cli_resume_s,
            "resume_s": cli_resume_s,
            "raw_wall_s": cold.total(cold.raw),
            "raw_aux_s": resume.total(resume.raw),
            "host_speed": speed.relative(),
        },
    )


# ----------------------------------------------------------------------
# Traced run (in process)
# ----------------------------------------------------------------------


def _execute_all(specs, checkpoints: Path, tracer=None) -> Tuple[Dict[str, str], int]:
    """Every spec through registry.execute on the inline backend."""
    from repro.experiments import registry
    from repro.runner import CheckpointStore, SweepRunner

    span = span_of(tracer)
    texts: Dict[str, str] = {}
    cells = 0
    for spec in specs:
        with span(f"experiments.{spec}"):
            runner = SweepRunner(jobs=1, checkpoint=CheckpointStore(checkpoints))
            result = registry.execute(spec, fast=True, runner=runner)
            texts[spec] = result.format() + "\n"
        cells += runner.last_stats.total
    return texts, cells


class _SolveLedger:
    """Counts real degree-MC solves (cache misses) and their iterations."""

    def __init__(self) -> None:
        self.solves = 0
        self.iterations = 0
        self.unconverged = 0

    def wrap(self, solve):
        from repro.markov.solve_cache import DEFAULT_CACHE

        ledger = self

        def counted(chain, *args, **kwargs):
            writes = DEFAULT_CACHE.stats.writes
            result = solve(chain, *args, **kwargs)
            if DEFAULT_CACHE.stats.writes > writes:
                ledger.solves += 1
                ledger.iterations += result.iterations
                ledger.unconverged += 0 if result.converged else 1
            return result

        return counted


def _markov_probes(tracer, seed: int) -> None:
    """The §7.5 machinery on the 340-state chain ``mixing-exact`` builds."""
    from repro.core.params import SFParams
    from repro.markov.conductance import expected_conductance
    from repro.markov.global_mc import GlobalMarkovChain
    from repro.markov.mixing import epsilon_independence_time, mixing_time
    from repro.model.membership_graph import MembershipGraph

    initial = MembershipGraph.from_edges([(0, 1), (0, 1), (1, 0), (1, 0)])
    chain = GlobalMarkovChain(SFParams(view_size=8, d_low=2), 0.2, initial).to_markov_chain()
    with tracer.span("markov.conductance.expected_conductance"):
        expected_conductance(chain, samples=CONDUCTANCE_SAMPLES, seed=seed)
    with tracer.span("markov.mixing.times"):
        epsilon_independence_time(chain, MIXING_EPSILON, max_steps=200_000)
        mixing_time(chain, MIXING_EPSILON, max_steps=200_000)


def _backend_probes(ctx: RunContext) -> Dict[str, float]:
    """loss-sweep on a cold cache through each sweep backend, jobs=2."""
    from repro.experiments import registry

    walls = {}
    for executor in ("inline", "process", "thread"):
        _cold_cache(ctx)
        start = time.perf_counter()
        registry.execute("loss-sweep", fast=True, jobs=JOBS, executor=executor)
        walls[f"runner.backends.{executor}.cold_sweep_s"] = time.perf_counter() - start
    return walls


def _run_traced(ctx: RunContext, specs: List[str]) -> WorkloadResult:
    import warnings

    from repro.experiments import registry
    from repro.markov.chain import MarkovChain
    from repro.markov.degree_mc import DegreeMarkovChain
    from repro.markov.global_mc import GlobalMarkovChain
    from repro.markov.solve_cache import DEFAULT_CACHE, SolveCache
    from repro.runner import CheckpointStore, SweepRunner

    tracer = ctx.tracer
    checks = Checks()
    start = time.perf_counter()
    registry.list_specs()  # first call imports every experiment module
    load_s = time.perf_counter() - start
    startup_s, code, err = _run_child(["list"], ctx.dirs.fresh("solve-cache"))
    checks.check("repro-list-exit-0", code == 0, err)

    warnings.simplefilter("ignore", RuntimeWarning)  # unconverged solves are counted
    _cold_cache(ctx)
    start = time.perf_counter()
    plain_texts, _ = _execute_all(specs, ctx.dirs.fresh("checkpoints"))
    plain_wall = time.perf_counter() - start

    _cold_cache(ctx)
    checkpoints = ctx.dirs.fresh("checkpoints")
    ledger = _SolveLedger()
    stats0 = (DEFAULT_CACHE.stats.hits(), DEFAULT_CACHE.stats.misses)
    with contextlib.ExitStack() as stack:
        previous = DegreeMarkovChain.solve
        DegreeMarkovChain.solve = ledger.wrap(previous)
        stack.callback(setattr, DegreeMarkovChain, "solve", previous)
        tracer.patch_all(stack, [
            (DegreeMarkovChain, "solve", "markov.degree_mc.solve"),
            (SolveCache, "get", "markov.solve_cache.get"),
            (SolveCache, "put", "markov.solve_cache.put"),
            (GlobalMarkovChain, "__init__", "markov.global_mc.enumerate"),
            (MarkovChain, "stationary_distribution", "markov.chain.stationary"),
            (CheckpointStore, "store", "runner.checkpoint.store"),
            (CheckpointStore, "load", "runner.checkpoint.load"),
            (SweepRunner, "run", "runner.sweep.run"),
            (registry, "_spec_worker", "runner.sweep.cell_run"),
        ])
        start = time.perf_counter()
        with tracer.span("report.cold"):
            cold_texts, cells = _execute_all(specs, checkpoints, tracer)
        cold_wall = time.perf_counter() - start
        cold_totals = tracer.totals()
        DEFAULT_CACHE.clear_memory()
        with tracer.span("report.resume"):
            resume_texts, resumed_cells = _execute_all(specs, checkpoints)
    checks.count(cells + resumed_cells)
    checks.check("traced-text-equals-untraced", cold_texts == plain_texts)
    checks.check("resume-text-byte-identical-to-cold", resume_texts == cold_texts)
    checkpoint_bytes = sum(p.stat().st_size for p in checkpoints.glob("*.pkl"))

    _markov_probes(tracer, ctx.seed)
    backend_walls = _backend_probes(ctx)

    totals = tracer.totals()
    spec_sum = sum(span_seconds(cold_totals, f"experiments.{spec}") for spec in specs)
    sum_ratio = ratio(spec_sum, span_seconds(cold_totals, "report.cold"))
    checks.close_to("per-spec-times-sum-to-wall", sum_ratio, 1.0, 0.05)
    hits = DEFAULT_CACHE.stats.hits() - stats0[0]
    misses = DEFAULT_CACHE.stats.misses - stats0[1]
    run_s = span_seconds(cold_totals, "runner.sweep.run")
    cell_run_s = span_seconds(cold_totals, "runner.sweep.cell_run")
    store_s = span_seconds(cold_totals, "runner.checkpoint.store")
    cold_loads = span_count(cold_totals, "runner.checkpoint.load")
    resume_load = totals["runner.checkpoint.load"]

    metrics = {
        **{spec_metric(spec): span_seconds(cold_totals, f"experiments.{spec}") for spec in specs},
        "experiments.sum_ratio": sum_ratio,
        "experiments.registry.load_s": load_s,
        "cli.startup_s": startup_s,
        "markov.conductance.expected_conductance_s": span_seconds(
            totals, "markov.conductance.expected_conductance"
        ),
        "markov.mixing.times_s": span_seconds(totals, "markov.mixing.times"),
        "markov.global_mc.enumerate_s": span_seconds(cold_totals, "markov.global_mc.enumerate"),
        "markov.chain.stationary_s": span_seconds(cold_totals, "markov.chain.stationary"),
        "markov.degree_mc.solve_s": span_seconds(cold_totals, "markov.degree_mc.solve"),
        "markov.degree_mc.solves": ledger.solves,
        "markov.degree_mc.iterations": ledger.iterations,
        "markov.degree_mc.unconverged": ledger.unconverged,
        "markov.solve_cache.put_us": per_call_us(totals, "markov.solve_cache.put"),
        "markov.solve_cache.get_us": per_call_us(totals, "markov.solve_cache.get"),
        "markov.solve_cache.hit_ratio": ratio(hits, hits + misses),
        "runner.sweep.run_s": run_s,
        "runner.sweep.cell_run_s": cell_run_s,
        "runner.sweep.overhead_s": run_s - cell_run_s - store_s,
        "runner.sweep.cells": cells,
        "runner.checkpoint.store_us": per_call_us(totals, "runner.checkpoint.store"),
        "runner.checkpoint.bytes": checkpoint_bytes,
        # Cold-pass loads are all misses; the resume pass's are the reads.
        "runner.checkpoint.load_us": ratio(
            resume_load.total_s - span_seconds(cold_totals, "runner.checkpoint.load"),
            resume_load.count - cold_loads,
        ) * 1e6,
        **backend_walls,
        "trace_overhead_ratio": cold_wall / plain_wall,
    }
    return WorkloadResult(
        metrics=metrics,
        checks=checks,
        digest=_texts_digest(cold_texts),
        info={
            "specs": len(specs),
            "cells": cells,
            "in_process_cold_s": plain_wall,
            "resume_in_process_s": span_seconds(totals, "report.resume"),
        },
    )
