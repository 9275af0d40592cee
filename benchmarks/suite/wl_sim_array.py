"""Workload ``sim-array-1m``: a million S&F nodes on the array kernel.

Primary phase: tenths of a round (``engine.run_actions(n // 10)``)
repeated until ``--seconds`` is spent, each bracketed by host-speed
probes; ``wall_s`` is ten times the median normalised tenth of the
``STEADY`` window (the rounds before it relax the ring bootstrap and are
warm-up).  The state digest is taken after round ``DIGEST_ROUND`` on
every run, so runs of any length compare.

Secondary phase: the paper-property snapshot (``degree_arrays``,
``dependent_fraction``, ``check_invariant``).  At n=10^6 one of its calls
runs 5 s — longer than the host's interference spells, so no probe can
normalise it and run-to-run spread was 18-40 %.  The gated ``aux_s`` is
therefore the same three calls on an n=10^5 twin (0.1-0.5 s each, still
a 120 MB working set), interleaved with the primary units and normalised
like them; the full-size snapshot runs once at the end, verifies the
state, and is reported raw as ``observe_s``.

Traced, every other tenth is driven by the harness instead of the
engine — the same batch schedule on the same generator, one span per
``run_batch`` — which yields the kernel's share, the engine's overhead
and the tracing overhead from one trajectory that stays bit-identical to
the untraced one.
"""

from __future__ import annotations

import copy
import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    Checks,
    HostSpeed,
    RunContext,
    WorkloadResult,
    digest_kernel,
    gc_parked,
    median,
    protocol_ratios,
    ratio,
    span_count,
    span_of,
    span_seconds,
    steady,
)
from repro.core.params import SFParams
from repro.engine.sequential import MAX_BATCH_ACTIONS
from repro.experiments.common import build_sf_system
from repro.kernel import ArrayKernel, jit_available
from repro.kernel.base import draw_action_block

PARAMS = SFParams(view_size=40, d_low=18)
LOSS = 0.05
N_FULL, N_QUICK = 1_000_000, 20_000
#: Twin for the gated snapshot, and the size sibling kernels are probed at
#: (a sharded build plus workers at 10^6 would double the run).
TWIN_DIVISOR = 10
SIBLING_ROUNDS = 5
#: Oracle size for the cross-backend digest check (ReferenceKernel is
#: object-per-node; 2000 nodes x 2 rounds is ~30 ms).
N_ORACLE = 2_000
UNITS_PER_ROUND = 10
DIGEST_ROUND = 3
#: Unit indices the statistics are taken over: fixed, so that a slow run
#: (fewer units) and a fast one weigh the same stretch of the trajectory.
STEADY = slice(DIGEST_ROUND * UNITS_PER_ROUND, DIGEST_ROUND * UNITS_PER_ROUND + 80)
#: One snapshot call on the twin after this many primary units.
SNAPSHOT_EVERY = 4
SNAPSHOT_CALLS = ("degree_arrays", "dependent_fraction", "check_invariant")
#: The first build faults in 1.2 GB of fresh pages (2-4 s) and later ones
#: alternate between ~0.8 s and ~1.2-1.8 s with what the allocator kept:
#: the median of three was the larger of two (29 % spread over ten runs);
#: the median of seven spreads 20 % for 4 s more per run.
SETUPS = 7


def _build(n: int, seed: int, backend: str = "array"):
    return build_sf_system(n, PARAMS, loss_rate=LOSS, seed=seed, backend=backend)


def _timed_setups(n: int, seed: int, speed: HostSpeed):
    """Build the system ``SETUPS`` times; keep the last, time each."""
    normalised: List[float] = []
    raw: List[float] = []
    kernel = engine = None
    for _ in range(SETUPS):
        kernel = engine = None
        gc.collect()  # one system resident at a time, or peak RSS doubles
        speed.resync()
        start = time.perf_counter()
        kernel, engine = _build(n, seed)
        raw.append(time.perf_counter() - start)
        normalised.append(raw[-1] * speed.factor())
    return kernel, engine, normalised, raw


def _harness_unit(engine, kernel, tracer, actions: int) -> None:
    """``actions`` picks on the engine's own batch schedule, a span per batch."""
    remaining = actions
    with tracer.span("engine.sequential.harness_unit"):
        while remaining > 0:
            batch = min(remaining, MAX_BATCH_ACTIONS)
            with tracer.span("kernel.array.run_batch"):
                kernel.run_batch(batch, engine.rng, engine.loss, engine.stats)
            engine.rounds_completed += batch / kernel.population
            remaining -= batch


def _replay_draws(rng, population: int, tracer, actions: int) -> None:
    """The unit's canonical draw blocks again, on a cloned generator."""
    remaining = actions
    while remaining > 0:
        batch = min(remaining, MAX_BATCH_ACTIONS)
        with tracer.span("kernel.base.draw"):
            draw_action_block(rng, batch, population, PARAMS.view_size)
        remaining -= batch


def _snapshot(kernel, checks: Checks, tracer=None) -> Tuple[float, Dict[str, float]]:
    """The paper-property snapshot; returns its wall time and findings."""
    facts: Dict[str, float] = {}
    span = span_of(tracer)
    start = time.perf_counter()
    with span("kernel.array.degree_arrays"):
        out, indeg = kernel.degree_arrays()
    with span("kernel.array.dependent_fraction"):
        facts["dependent_fraction"] = kernel.dependent_fraction()
    with span("kernel.array.check_invariant"):
        checks.guard("observation-5.1", kernel.check_invariant)
    wall = time.perf_counter() - start
    facts["mean_outdegree"] = float(out.mean())
    facts["indegree_std"] = float(indeg.std())
    checks.check(
        "edge-count-balance",
        int(out.sum()) == int(indeg.sum()),
        f"out {int(out.sum())} in {int(indeg.sum())}",
    )
    checks.check(
        "dependent-fraction-in-range", 0.0 <= facts["dependent_fraction"] <= 1.0
    )
    return wall, facts


def _oracle_check(seed: int, checks: Checks) -> None:
    """ArrayKernel against the object-per-node oracle, same seed, bit for bit."""
    views = []
    for backend in ("array", "reference-kernel"):
        kernel, engine = _build(N_ORACLE, seed, backend)
        engine.run_rounds(2)
        views.append(tuple(kernel.view_slots(node) for node in kernel.node_ids()))
    checks.check("array-equals-reference-kernel", views[0] == views[1])


def _verify_counts(kernel, engine, units: int, unit_actions: int, checks: Checks) -> None:
    checks.count(units)
    checks.guard("message-conservation", engine.stats.check_conservation)
    checks.check(
        "actions-equal-units-times-size",
        engine.stats.actions == units * unit_actions,
        f"{engine.stats.actions} vs {units * unit_actions}",
    )
    lost = ratio(engine.stats.messages_lost, engine.stats.messages_sent)
    checks.close_to("loss-rate", lost, LOSS, 0.01)


def _timed_loop(ctx: RunContext, kernel, run_unit) -> Tuple[int, str]:
    """Units until ``--seconds`` is spent; the digest after ``DIGEST_ROUND`` rounds."""
    digest_units = DIGEST_ROUND * UNITS_PER_ROUND
    digest = ""
    units = 0
    with gc_parked():
        began = time.perf_counter()
        while units < digest_units or time.perf_counter() - began < ctx.seconds:
            run_unit(units)
            units += 1
            if units == digest_units:
                digest = digest_kernel(kernel)
    return units, digest


def run(ctx: RunContext) -> WorkloadResult:
    n = N_QUICK if ctx.quick else N_FULL
    system_seed, oracle_seed, twin_seed = ctx.seeds(3)
    if ctx.trace:
        return _run_traced(ctx, n, system_seed, oracle_seed, twin_seed)
    checks = Checks()
    speed = HostSpeed()
    kernel, engine, setups, raw_setups = _timed_setups(n, system_seed, speed)
    twin, twin_engine = _build(n // TWIN_DIVISOR, twin_seed)
    twin_engine.run_rounds(DIGEST_ROUND)
    unit_actions = n // UNITS_PER_ROUND
    walls: List[float] = []
    cpus: List[float] = []
    raw: List[float] = []
    calls: Dict[str, List[float]] = {name: [] for name in SNAPSHOT_CALLS}

    def run_unit(index: int) -> None:
        cpu0 = time.process_time()
        start = time.perf_counter()
        engine.run_actions(unit_actions)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        factor = speed.factor()
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        raw.append(wall)
        if index % SNAPSHOT_EVERY == 0:
            name = SNAPSHOT_CALLS[index // SNAPSHOT_EVERY % len(SNAPSHOT_CALLS)]
            start = time.perf_counter()
            getattr(twin, name)()
            wall = time.perf_counter() - start
            calls[name].append(wall * speed.factor())

    units, digest = _timed_loop(ctx, kernel, run_unit)
    with gc_parked():
        observe_s, facts = _snapshot(kernel, checks)
    _verify_counts(kernel, engine, units, unit_actions, checks)
    _oracle_check(oracle_seed, checks)
    wall_s = median(steady(walls, STEADY)) * UNITS_PER_ROUND
    return WorkloadResult(
        metrics={
            "setup_s": median(setups),
            "wall_s": wall_s,
            "aux_s": sum(median(times) for times in calls.values()),
            "cpu_s": median(steady(cpus, STEADY)) * UNITS_PER_ROUND,
        },
        checks=checks,
        digest=digest,
        info={
            "n": n,
            "rounds": units / UNITS_PER_ROUND,
            "actions_per_s": n / wall_s,
            "observe_s": observe_s,
            "snapshot_samples": min(len(times) for times in calls.values()),
            "raw_wall_s": median(steady(raw, STEADY)) * UNITS_PER_ROUND,
            "raw_setup_s": median(raw_setups),
            "host_speed": speed.relative(),
            **facts,
            **protocol_ratios(kernel.stats, engine.stats),
        },
    )


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _sibling_ns_per_action(backend: str, n: int, seed: int) -> Tuple[float, float]:
    """ns per action (and peak RSS in MB, sharded only) over a few rounds."""
    kernel, engine = _build(n, seed, backend)
    try:
        engine.run_rounds(1)  # past the ring bootstrap, workers spawned
        start = time.perf_counter()
        engine.run_rounds(SIBLING_ROUNDS)
        wall = time.perf_counter() - start
        rss_mb = kernel.peak_rss_kb() / 1024.0 if hasattr(kernel, "peak_rss_kb") else 0.0
    finally:
        if hasattr(kernel, "close"):
            kernel.close()
    return wall / (SIBLING_ROUNDS * n) * 1e9, rss_mb


def _twin_digest_check(seed: int, tracer, checks: Checks) -> None:
    """Engine-driven and harness-driven units must reach the same state."""
    digests = []
    for harness_driven in (False, True):
        kernel, engine = _build(N_QUICK, seed)
        for _ in range(2):
            if harness_driven:
                _harness_unit(engine, kernel, tracer, N_QUICK)
            else:
                engine.run_actions(N_QUICK)
        digests.append(digest_kernel(kernel))
    checks.check("harness-units-equal-engine-units", digests[0] == digests[1])


def _run_traced(ctx, n, system_seed, oracle_seed, twin_seed) -> WorkloadResult:
    tracer = ctx.tracer
    checks = Checks()
    with tracer.patched(ArrayKernel, "add_nodes", "kernel.array.add_nodes"):
        with tracer.span("setup"):
            kernel, engine = _build(n, system_seed)
    state_mb = sum(
        value.nbytes for value in vars(kernel).values() if isinstance(value, np.ndarray)
    ) / 2**20
    unit_actions = n // UNITS_PER_ROUND
    engine_walls: List[float] = []
    harness_walls: List[float] = []

    def run_unit(index: int) -> None:
        if index % 2 == 0:
            start = time.perf_counter()
            engine.run_actions(unit_actions)
            engine_walls.append(time.perf_counter() - start)
        else:
            clone = copy.deepcopy(engine.rng)
            start = time.perf_counter()
            _harness_unit(engine, kernel, tracer, unit_actions)
            harness_walls.append(time.perf_counter() - start)
            _replay_draws(clone, kernel.population, tracer, unit_actions)

    units, digest = _timed_loop(ctx, kernel, run_unit)
    with gc_parked(), tracer.span("observe"):
        _snapshot(kernel, checks, tracer)
    _verify_counts(kernel, engine, units, unit_actions, checks)
    _oracle_check(oracle_seed, checks)
    _twin_digest_check(oracle_seed, tracer, checks)

    n_sibling = n // TWIN_DIVISOR
    sharded_ns, sharded_rss = _sibling_ns_per_action("sharded", n_sibling, twin_seed)
    jit_ns = (
        _sibling_ns_per_action("jit", n_sibling, twin_seed)[0]
        if jit_available()
        else 0.0  # Numba absent: the backend cannot run here
    )

    totals = tracer.totals()
    # Spans are summed over every traced unit, so these are means per round.
    traced_rounds = len(harness_walls) / UNITS_PER_ROUND
    run_batch_s = span_seconds(totals, "kernel.array.run_batch") / traced_rounds
    draw_s = span_seconds(totals, "kernel.base.draw") / traced_rounds
    # Engine and harness units alternate, so both medians saw the same host.
    engine_round = median(engine_walls) * UNITS_PER_ROUND
    harness_round = median(harness_walls) * UNITS_PER_ROUND
    metrics = {
        "kernel.array.run_batch_s": run_batch_s,
        "kernel.array.batches": span_count(totals, "kernel.array.run_batch") / traced_rounds,
        "kernel.array.ns_per_action": run_batch_s / n * 1e9,
        "kernel.base.draw_s": draw_s,
        "kernel.array.self_s": run_batch_s - draw_s,
        "engine.sequential.overhead_s": engine_round - harness_round,
        "kernel.array.degree_arrays_s": span_seconds(totals, "kernel.array.degree_arrays"),
        "kernel.array.dependent_fraction_s": span_seconds(
            totals, "kernel.array.dependent_fraction"
        ),
        "kernel.array.check_invariant_s": span_seconds(
            totals, "kernel.array.check_invariant"
        ),
        "kernel.array.add_nodes_s": span_seconds(totals, "kernel.array.add_nodes"),
        "kernel.array.state_mb": state_mb,
        "kernel.sharded.ns_per_action": sharded_ns,
        "kernel.sharded.peak_rss_mb": sharded_rss,
        "kernel.jit.ns_per_action": jit_ns,
        "actions_per_s": n / engine_round,
        "trace_overhead_ratio": harness_round / engine_round,
        **protocol_ratios(kernel.stats, engine.stats),
    }
    return WorkloadResult(
        metrics=metrics,
        checks=checks,
        digest=digest,
        info={"n": n, "rounds": units / UNITS_PER_ROUND, "n_sibling": n_sibling},
    )
