"""Workload ``sim-default-2k``: the default object backend, then the DES.

The path every registry experiment takes: ``build_sf_system(n)`` with no
``backend`` argument, per-action ``SendForget`` objects, a per-round
``ChurnProcess`` hook — then the same protocol class under the
discrete-event engine with exponential delays.  Sequential units (one
churned round) and DES units (one time unit) alternate until
``--seconds`` is spent, each bracketed by host-speed probes; ``wall_s``
and ``aux_s`` are the median normalised unit of each kind inside the
``STEADY`` window (the units before it relax the ring bootstrap and are
warm-up).  The state digest is taken after ``DIGEST_UNIT`` units of each.

Traced, a twin without wrappers runs for a third of the time, then an
identically seeded system runs with timing wrappers patched onto its
protocol, loss model, transport, churn process and delay model.  Both
must reach the same digest.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List

from harness import (
    Checks,
    HostSpeed,
    RunContext,
    WorkloadResult,
    digest_text,
    digest_views,
    gc_parked,
    median,
    protocol_ratios,
    ratio,
    span_count,
    span_of,
    span_seconds,
    steady,
)
from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.experiments.common import build_sf_system
from repro.metrics.degrees import degree_summary
from repro.net.delay import ExponentialDelay
from repro.net.loss import UniformLoss

PARAMS = SFParams(view_size=40, d_low=18)
LOSS = 0.05
N_FULL, N_QUICK = 2_000, 300
SEQ_ROUNDS = 1
DES_TIME = 1.0
CHURN_JOIN = CHURN_LEAVE = 2.0
DIGEST_UNIT = 15
#: Unit indices the statistics are taken over: fixed, so that a slow run
#: (fewer units) and a fast one weigh the same stretch of the trajectory.
STEADY = slice(DIGEST_UNIT, DIGEST_UNIT + 120)
SETUPS = 7
PROBE_ROUNDS = {"reference-kernel": 5, "array": 20}


@dataclass
class System:
    """Both halves of the workload, built from three seeds."""

    protocol: SendForget
    engine: object
    churn: ChurnProcess
    des_protocol: SendForget
    des: DiscreteEventEngine
    #: Raw wall time, normalised wall and CPU time, and work done, per unit.
    seq_raw: List[float] = field(default_factory=list)
    seq_walls: List[float] = field(default_factory=list)
    seq_cpus: List[float] = field(default_factory=list)
    seq_actions: List[int] = field(default_factory=list)
    des_raw: List[float] = field(default_factory=list)
    des_walls: List[float] = field(default_factory=list)
    des_events: List[int] = field(default_factory=list)
    digest: str = ""

    def steady(self, values: List[float]) -> List[float]:
        return steady(values, STEADY)


def build_system(n: int, seeds: List[int]) -> System:
    protocol, engine = build_sf_system(n, PARAMS, loss_rate=LOSS, seed=seeds[0])
    churn = ChurnProcess(protocol, CHURN_JOIN, CHURN_LEAVE, seed=seeds[1])
    engine.add_round_hook(1, lambda _engine, _round: churn.apply_round())
    des_protocol = SendForget(PARAMS)
    degree = protocol.outdegree(0)  # the same ring bootstrap as the sequential half
    for u in range(n):
        des_protocol.add_node(u, [(u + k) % n for k in range(1, degree + 1)])
    des = DiscreteEventEngine(
        des_protocol, UniformLoss(LOSS), ExponentialDelay(1.0), seed=seeds[2]
    )
    return System(protocol, engine, churn, des_protocol, des)


def _des_events(des: DiscreteEventEngine) -> int:
    """Events processed so far: every initiate plus every delivery popped."""
    stats = des.stats
    return stats.actions + stats.messages_delivered + stats.messages_to_departed


def run_unit_pair(system: System, speed: HostSpeed, tracer=None) -> None:
    """One sequential unit and one DES unit, each timed between two probes."""
    engine, des = system.engine, system.des
    span = span_of(tracer)

    actions0 = engine.stats.actions
    cpu0 = time.process_time()
    start = time.perf_counter()
    with span("engine.sequential"):
        engine.run_rounds(SEQ_ROUNDS)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    factor = speed.factor()
    system.seq_raw.append(wall)
    system.seq_walls.append(wall * factor)
    system.seq_cpus.append(cpu * factor)
    system.seq_actions.append(engine.stats.actions - actions0)

    events0 = _des_events(des)
    start = time.perf_counter()
    with span("engine.des"):
        des.run_until(des.now + DES_TIME)
    wall = time.perf_counter() - start
    system.des_raw.append(wall)
    system.des_walls.append(wall * speed.factor())
    system.des_events.append(_des_events(des) - events0)

    if len(system.seq_walls) == DIGEST_UNIT:
        system.digest = digest_text(
            [digest_views(system.protocol), digest_views(system.des_protocol)]
        )
        speed.resync()


def verify(system: System, checks: Checks, quick: bool) -> None:
    engine, des = system.engine, system.des
    checks.count(engine.stats.actions + des.stats.actions)
    checks.guard("observation-5.1-sequential", system.protocol.check_invariant)
    checks.guard("observation-5.1-des", system.des_protocol.check_invariant)
    checks.guard("message-conservation-sequential", engine.stats.check_conservation)
    # EngineStats.check_conservation does not know the DES keeps messages
    # in flight across run_until boundaries; account for them here.
    stats = des.stats
    checks.check(
        "message-conservation-des",
        stats.messages_sent
        == stats.messages_delivered
        + stats.messages_lost
        + stats.messages_to_departed
        + des.messages_in_flight,
        f"{stats} in_flight={des.messages_in_flight}",
    )
    tolerance = 0.03 if quick else 0.01
    checks.close_to("loss-rate-sequential", engine.stats.loss_fraction(), LOSS, tolerance)
    checks.close_to("loss-rate-des", stats.loss_fraction(), LOSS, tolerance)
    checks.check(
        "churn-applied",
        len(system.churn.joined) > 0 and len(system.churn.left) > 0,
        f"joined {len(system.churn.joined)} left {len(system.churn.left)}",
    )


def _rates(system: System) -> Dict[str, float]:
    steady = system.steady
    return {
        "actions_per_s": median(steady(system.seq_actions)) / median(steady(system.seq_walls)),
        "des_events_per_s": median(steady(system.des_events)) / median(steady(system.des_walls)),
    }


def run(ctx: RunContext) -> WorkloadResult:
    n = N_QUICK if ctx.quick else N_FULL
    seeds = ctx.seeds(3)
    if ctx.trace:
        return _run_traced(ctx, n, seeds)
    checks = Checks()
    speed = HostSpeed()
    setups: List[float] = []
    raw_setups: List[float] = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        system = build_system(n, seeds)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * speed.factor())
    with gc_parked():
        began = time.perf_counter()
        while (
            len(system.seq_walls) < DIGEST_UNIT
            or time.perf_counter() - began < ctx.seconds
        ):
            run_unit_pair(system, speed)
    verify(system, checks, ctx.quick)
    return WorkloadResult(
        metrics={
            "setup_s": median(setups),
            "wall_s": median(system.steady(system.seq_walls)),
            "aux_s": median(system.steady(system.des_walls)),
            "cpu_s": median(system.steady(system.seq_cpus)),
        },
        checks=checks,
        digest=system.digest,
        info={
            "n": n,
            "units": len(system.seq_walls),
            "population": len(system.protocol.node_ids()),
            "raw_wall_s": median(system.steady(system.seq_raw)),
            "raw_aux_s": median(system.steady(system.des_raw)),
            "raw_setup_s": median(raw_setups),
            "host_speed": speed.relative(),
            **_rates(system),
            **protocol_ratios(system.protocol.stats, system.engine.stats),
        },
    )


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _patch_targets(system: System):
    """``(owner, attribute, span name)`` for every layer boundary.

    ``handle`` dispatches to ``initiate_effects`` / ``deliver_effects``,
    so wrapping those two splits the protocol's time by event kind.
    """
    engine, des = system.engine, system.des
    return [
        (system.protocol, "initiate_effects", "core.sandf.handle_initiate"),
        (system.protocol, "deliver_effects", "core.sandf.handle_deliver"),
        (system.protocol, "node_ids", "core.sandf.node_ids"),
        (system.protocol, "has_node", "core.sandf.has_node"),
        (engine.loss, "is_lost", "net.loss.is_lost"),
        (engine.transport, "send", "net.transport.loopback"),
        (engine.transport, "poll", "net.transport.loopback"),
        (system.churn, "apply_round", "churn.apply_round"),
        (system.des_protocol, "initiate_effects", "engine.des.handle"),
        (system.des_protocol, "deliver_effects", "engine.des.handle"),
        (des.delay, "sample", "net.delay.sample"),
    ]


def _probe_ns_per_action(backend: str, n: int, seed: int) -> float:
    """The same n through a kernel backend: ns per action."""
    _, engine = build_sf_system(n, PARAMS, loss_rate=LOSS, seed=seed, backend=backend)
    engine.run_rounds(1)
    rounds = PROBE_ROUNDS[backend]
    start = time.perf_counter()
    engine.run_rounds(rounds)
    return (time.perf_counter() - start) / (rounds * n) * 1e9


def _run_traced(ctx: RunContext, n: int, seeds: List[int]) -> WorkloadResult:
    tracer = ctx.tracer
    checks = Checks()
    twin = build_system(n, seeds)
    system = build_system(n, seeds)
    speed = HostSpeed()
    with gc_parked():
        began = time.perf_counter()
        while (
            len(twin.seq_walls) < DIGEST_UNIT
            or time.perf_counter() - began < ctx.seconds / 3
        ):
            run_unit_pair(twin, speed)
        with contextlib.ExitStack() as stack:
            tracer.patch_all(stack, _patch_targets(system))
            began = time.perf_counter()
            while (
                len(system.seq_walls) < DIGEST_UNIT
                or time.perf_counter() - began < 2 * ctx.seconds / 3
            ):
                run_unit_pair(system, speed, tracer)
        with tracer.span("metrics.degree_summary"):
            summary = degree_summary(system.protocol)
        with tracer.span("metrics.dependent_fraction"):
            dependent = system.protocol.dependent_fraction()
    verify(system, checks, ctx.quick)
    checks.check("traced-digest-equals-untraced", system.digest == twin.digest)
    checks.check("dependent-fraction-in-range", 0.0 <= dependent <= 1.0)

    totals = tracer.totals()
    units = len(system.seq_walls)

    def per_unit(name: str, self_time: bool = True) -> float:
        """Mean seconds per unit (one round / one DES time unit), self time."""
        return span_seconds(totals, name, self_time) / units

    sequential = per_unit("engine.sequential", self_time=False)
    metrics = {
        "core.sandf.handle_initiate_s": per_unit("core.sandf.handle_initiate"),
        "core.sandf.handle_deliver_s": per_unit("core.sandf.handle_deliver"),
        "core.sandf.node_ids_s": per_unit("core.sandf.node_ids"),
        "core.sandf.node_ids_calls": span_count(totals, "core.sandf.node_ids") / units,
        "core.sandf.node_ids_share": ratio(per_unit("core.sandf.node_ids"), sequential),
        "core.sandf.has_node_s": per_unit("core.sandf.has_node"),
        "net.loss.is_lost_s": per_unit("net.loss.is_lost"),
        "net.transport.loopback_s": per_unit("net.transport.loopback"),
        "engine.sequential.self_s": per_unit("engine.sequential"),
        "churn.apply_round_s": per_unit("churn.apply_round"),
        "metrics.degree_summary_s": span_seconds(totals, "metrics.degree_summary"),
        "metrics.dependent_fraction_s": span_seconds(totals, "metrics.dependent_fraction"),
        "engine.des.self_s": per_unit("engine.des"),
        "engine.des.handle_s": per_unit("engine.des.handle"),
        "engine.des.events": sum(system.des_events) / units,
        "engine.des.max_in_flight": system.des.max_in_flight,
        "net.delay.sample_s": per_unit("net.delay.sample"),
        "kernel.reference.ns_per_action": _probe_ns_per_action(
            "reference-kernel", n, seeds[0]
        ),
        "kernel.array.small_n_ns_per_action": _probe_ns_per_action("array", n, seeds[0]),
        # Unit cost drifts as the ring bootstrap relaxes: compare like units.
        "trace_overhead_ratio": median(system.steady(system.seq_walls[: len(twin.seq_walls)]))
        / median(twin.steady(twin.seq_walls)),
        **_rates(twin),
        **protocol_ratios(system.protocol.stats, system.engine.stats),
    }
    return WorkloadResult(
        metrics=metrics,
        checks=checks,
        digest=system.digest,
        info={
            "n": n,
            "units": units,
            "twin_units": len(twin.seq_walls),
            "mean_outdegree": summary.outdegree_mean,
            "dependent_fraction": dependent,
        },
    )
