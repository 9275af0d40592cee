"""Workload ``live-udp-100``: the asyncio UDP cluster on host loopback.

Two open-loop phases, half of ``--seconds`` each.  *Paced*: every node's
exponential clock at ``rate=100``, 10k actions/s offered in total, for
delivery latency and achieved/offered goodput.  *Saturated*: clocks at
``rate=5000``, offered load far beyond capacity, so the actions completed
per second are the cluster's per-action cost.  The action counters are
sampled every ``SAMPLE_S`` with a host-speed probe between samples, and
the median normalised interval is reported.  Interleaving is the OS scheduler's, so there is no state digest;
correctness is the run's own report (Observation 5.1 on every live view,
no node error, no failed join) and the injected drop fraction.

The cluster is driven through ``LocalCluster`` (start, sleep, report,
shutdown — ``LocalCluster.run`` without the scenario knobs) so that boot
and shutdown are timed on their own.  Traced, the same driver runs with
wrappers on the protocol's two event handlers, the wire codec and the
transport's send.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List

from harness import (
    Checks,
    HostSpeed,
    RunContext,
    WorkloadResult,
    median,
    per_call_us,
    ratio,
    span_count,
    span_of,
    span_seconds,
)
from repro.core.sandf import SendForget
from repro.failure import (
    FD_EXT_KEY,
    FD_WIRE_VERSION,
    DetectorConfig,
    FailureDetector,
    LivenessUpdate,
    PeerState,
)
from repro.net import transport as transport_module
from repro.net import wire
from repro.net.transport import AsyncioUdpTransport
from repro.protocols.base import Message
from repro.runtime.cluster import ClusterConfig, ClusterReport, LocalCluster

N_FULL, N_QUICK = 100, 20
VIEW_SIZE, D_LOW, DROP = 40, 18, 0.05
PACED_RATE, SATURATED_RATE = 100.0, 5000.0
SETUPS = 15
SAMPLE_S = 0.1
WALL_UNIT_ACTIONS = 100_000
ROUNDTRIPS = 2_000
CODEC_REPEATS = 2_000
FD_REPEATS = 500
FD_PEERS = 64


def _config(n: int, rate: float, duration: float, seed: int) -> ClusterConfig:
    return ClusterConfig(
        n=n, view_size=VIEW_SIZE, d_low=D_LOW, drop_rate=DROP,
        rate=rate, duration_s=duration, seed=seed,
    )


@dataclass
class Drive:
    """One cluster life: its report, phase timings and per-interval samples."""

    report: ClusterReport
    boot_s: float
    shutdown_s: float
    #: Host-speed scale over the boot and shutdown, and over the whole run.
    edge_factor: float
    run_factor: float
    #: ``(wall, cpu, actions, host-speed factor)`` of each ``SAMPLE_S`` interval.
    samples: List[tuple] = field(default_factory=list)

    def total(self, column: int) -> float:
        return sum(sample[column] for sample in self.samples)

    def s_per_action(self, normalise: bool = True) -> float:
        return median([
            wall / actions * (factor if normalise else 1.0)
            for wall, _, actions, factor in self.samples if actions
        ])

    def cpu_per_action(self) -> float:
        return median([
            cpu / actions * factor for _, cpu, actions, factor in self.samples if actions
        ])


def _actions(cluster: LocalCluster) -> int:
    return sum(node.protocol.stats.actions for node in cluster.nodes.values())


async def _drive(config: ClusterConfig, tracer=None, label: str = "") -> Drive:
    """Boot, run for ``duration_s`` sampling the action counters, report, shut down.

    Probes run between sampling intervals, outside the timed part, and
    block the loop for ~4 ms each: 4 % of the run, the same on every run.
    """
    span = span_of(tracer)
    cluster = LocalCluster(config)
    speed = HostSpeed()
    start = time.perf_counter()
    with span("runtime.cluster.boot"):
        await cluster.start()
    boot_s = time.perf_counter() - start
    boot_factor = speed.factor()
    samples = []
    with span(f"runtime.cluster.run.{label}"):
        began = time.perf_counter()
        while time.perf_counter() - began < config.duration_s:
            wall0, cpu0, actions0 = time.perf_counter(), time.process_time(), _actions(cluster)
            await asyncio.sleep(min(SAMPLE_S, config.duration_s))
            wall1, cpu1, actions1 = time.perf_counter(), time.process_time(), _actions(cluster)
            samples.append((wall1 - wall0, cpu1 - cpu0, actions1 - actions0, speed.factor()))
    report = cluster.report(publish=False)
    speed.resync()
    start = time.perf_counter()
    with span("runtime.cluster.shutdown"):
        await cluster.shutdown()
    shutdown_s = time.perf_counter() - start
    edge_factor = (boot_factor + speed.factor()) / 2.0
    return Drive(report, boot_s, shutdown_s, edge_factor, speed.relative(), samples)


def _verify(report: ClusterReport, phase: str, checks: Checks, quick: bool) -> None:
    checks.count(report.actions, len(report.errors) + report.join_failures)
    checks.check(
        f"{phase}-report-ok", report.ok(),
        "; ".join(report.degree_violations[:2] + report.errors[:2]),
    )
    checks.check(f"{phase}-all-nodes-live", report.live_nodes == report.n)
    checks.check(
        f"{phase}-no-decode-errors", report.decode_errors == 0 and report.unroutable == 0
    )
    checks.check(
        f"{phase}-received-at-most-sent",
        report.datagrams_received <= report.datagrams_sent,
    )
    # The draw is binomial; a 1 s quick phase on 20 nodes sees ~1e3 datagrams.
    checks.close_to(
        f"{phase}-drop-fraction", report.observed_drop_fraction(), DROP,
        0.03 if quick else 0.01,
    )


def _goodput(paced: Drive, n: int) -> float:
    return paced.total(2) / (n * PACED_RATE * paced.total(0))


def run(ctx: RunContext) -> WorkloadResult:
    n = N_QUICK if ctx.quick else N_FULL
    seeds = ctx.seeds(2 + SETUPS)
    if ctx.trace:
        return _run_traced(ctx, n, seeds)
    checks = Checks()
    half = ctx.seconds / 2.0

    setups: List[float] = []
    raw_setups: List[float] = []
    for index in range(SETUPS):
        life = asyncio.run(_drive(_config(n, PACED_RATE, 0.0, seeds[2 + index])))
        raw_setups.append(life.boot_s + life.shutdown_s)
        setups.append(raw_setups[-1] * life.edge_factor)
        checks.check("setup-report-ok", life.report.ok())

    paced = asyncio.run(_drive(_config(n, PACED_RATE, half, seeds[0])))
    _verify(paced.report, "paced", checks, ctx.quick)
    goodput = _goodput(paced, n)
    checks.check("paced-goodput", goodput >= 0.7, f"{goodput:.3f}")

    saturated = asyncio.run(_drive(_config(n, SATURATED_RATE, half, seeds[1])))
    _verify(saturated.report, "saturated", checks, ctx.quick)

    wall_s = saturated.s_per_action() * WALL_UNIT_ACTIONS
    # Latency at 60 % utilisation is processing plus queueing, and both
    # stretch with the host: normalise the median by the phase's host speed.
    latency_s = paced.report.latency_p50_ms / 1e3
    return WorkloadResult(
        metrics={
            "setup_s": median(setups),
            "wall_s": wall_s,
            "aux_s": latency_s * paced.run_factor,
            "cpu_s": saturated.cpu_per_action() * WALL_UNIT_ACTIONS,
        },
        checks=checks,
        info={
            "n": n,
            "actions_per_s": WALL_UNIT_ACTIONS / wall_s,
            "raw_wall_s": saturated.s_per_action(normalise=False) * WALL_UNIT_ACTIONS,
            "raw_aux_s": latency_s,
            "raw_setup_s": median(raw_setups),
            "host_speed": saturated.run_factor,
            "paced_host_speed": paced.run_factor,
            "deliver_p50_ms": paced.report.latency_p50_ms,
            "deliver_p99_ms": paced.report.latency_p99_ms,
            "paced_goodput_ratio": goodput,
            "paced_actions": paced.report.actions,
            "saturated_actions": saturated.report.actions,
            "saturated_drop_fraction": saturated.report.observed_drop_fraction(),
        },
    )


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


async def _roundtrip_us(count: int) -> float:
    """Closed-loop ping-pong between two transports: µs per round trip."""
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    message = Message(sender=0, target=1, payload=[(0, False), (7, True)], kind="sandf")
    remaining = [count]

    def on_a(_record, _timestamp, _addr):
        remaining[0] -= 1
        if remaining[0] <= 0:
            done.set_result(None)
        else:
            a.send_record(message, b.address)

    def on_b(record, _timestamp, addr):
        b.send_record(record, addr)

    a = await AsyncioUdpTransport.create(on_a)
    b = await AsyncioUdpTransport.create(on_b)
    try:
        start = time.perf_counter()
        a.send_record(message, b.address)
        await asyncio.wait_for(done, timeout=20)
        return (time.perf_counter() - start) / count * 1e6
    finally:
        a.close()
        b.close()


def _per_call_us(call, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats * 1e6


def _rumor_blob(heartbeat: int) -> Dict[str, object]:
    """A full piggyback: one fresh ALIVE rumor for each of ``FD_PEERS`` peers."""
    return {
        "v": FD_WIRE_VERSION,
        "g": [
            LivenessUpdate(peer, PeerState.ALIVE, 0, heartbeat).encode()
            for peer in range(1, FD_PEERS + 1)
        ],
    }


def _codec_and_detector_probes() -> Dict[str, float]:
    """The wire codec on a plain and an FD-piggybacked (~1 KiB) datagram, and
    the detector's three per-message entry points at ``FD_PEERS`` known peers.

    Every absorbed blob carries a higher heartbeat than the last, so each
    rumor is news: it is merged and re-queued, which is the costly path.
    """
    plain = Message(sender=3, target=5, payload=[(3, False), (11, True)], kind="sandf")
    piggybacked = Message(
        sender=3, target=5, payload=plain.payload, kind="sandf",
        ext={FD_EXT_KEY: _rumor_blob(1)},
    )
    fd_bytes = wire.encode(piggybacked, timestamp=1.0)
    detector = FailureDetector(0, config=DetectorConfig(piggyback_limit=FD_PEERS))
    absorb_s = extension_s = beat_s = 0.0
    for step in range(1, FD_REPEATS + 1):
        blob, now = _rumor_blob(step), step * 1e-3
        t0 = time.perf_counter()
        detector.absorb_extension(blob, now)
        t1 = time.perf_counter()
        detector.beat(now)
        t2 = time.perf_counter()
        detector.wire_extension()
        t3 = time.perf_counter()
        absorb_s, beat_s, extension_s = absorb_s + t1 - t0, beat_s + t2 - t1, extension_s + t3 - t2
    return {
        "net.wire.bytes_per_msg": len(wire.encode(plain, timestamp=1.0)),
        "net.wire.bytes_per_fd_msg": len(fd_bytes),
        "net.wire.encode_fd_us": _per_call_us(
            lambda: wire.encode(piggybacked, timestamp=1.0), CODEC_REPEATS
        ),
        "net.wire.decode_fd_us": _per_call_us(
            lambda: wire.decode_with_timestamp(fd_bytes), CODEC_REPEATS
        ),
        "failure.detector.beat_us": beat_s / FD_REPEATS * 1e6,
        "failure.detector.absorb_us": absorb_s / FD_REPEATS * 1e6,
        "failure.detector.wire_extension_us": extension_s / FD_REPEATS * 1e6,
    }


def _run_traced(ctx: RunContext, n: int, seeds: List[int]) -> WorkloadResult:
    tracer = ctx.tracer
    checks = Checks()
    third = ctx.seconds / 3.0

    # Untraced saturated slice first: the base of trace_overhead_ratio.
    plain = asyncio.run(_drive(_config(n, SATURATED_RATE, third, seeds[1])))
    _verify(plain.report, "untraced-saturated", checks, ctx.quick)

    with contextlib.ExitStack() as stack:
        tracer.patch_all(stack, [
            (SendForget, "initiate_effects", "core.sandf.handle"),
            (SendForget, "deliver_effects", "core.sandf.handle"),
            (transport_module, "encode", "net.wire.encode"),
            (transport_module, "decode_with_timestamp", "net.wire.decode"),
            (AsyncioUdpTransport, "send_record", "net.transport.udp_send"),
        ])
        saturated = asyncio.run(
            _drive(_config(n, SATURATED_RATE, third, seeds[1]), tracer, "saturated")
        )
        saturated_totals = tracer.totals()
        paced = asyncio.run(_drive(_config(n, PACED_RATE, third, seeds[0]), tracer, "paced"))
    _verify(saturated.report, "saturated", checks, ctx.quick)
    _verify(paced.report, "paced", checks, ctx.quick)
    roundtrip_us = asyncio.run(_roundtrip_us(200 if ctx.quick else ROUNDTRIPS))

    # Per-action figures are means over the whole traced saturated run.
    actions = saturated.total(2)
    wall = saturated.total(0)
    layers = ("core.sandf.handle", "net.wire.encode", "net.wire.decode", "net.transport.udp_send")
    attributed_us = sum(
        span_seconds(saturated_totals, name, self_time=True) for name in layers
    ) / actions * 1e6
    cpu_us = saturated.total(1) / actions * 1e6

    goodput = _goodput(paced, n)
    report = saturated.report
    metrics = {
        "runtime.cluster.cpu_us_per_action": cpu_us,
        "core.sandf.handle_us": per_call_us(saturated_totals, "core.sandf.handle"),
        "net.wire.encode_us": per_call_us(saturated_totals, "net.wire.encode"),
        "net.wire.decode_us": per_call_us(saturated_totals, "net.wire.decode"),
        "net.transport.udp_send_us": ratio(
            span_seconds(saturated_totals, "net.transport.udp_send", self_time=True),
            span_count(saturated_totals, "net.transport.udp_send"),
        ) * 1e6,
        "net.transport.udp_roundtrip_us": roundtrip_us,
        "runtime.cluster.unattributed_us_per_action": cpu_us - attributed_us,
        "runtime.cluster.datagrams_per_s": report.datagrams_sent / wall,
        "runtime.cluster.send_ratio": ratio(report.datagrams_sent, report.actions),
        "runtime.cluster.drop_ratio": report.observed_drop_fraction(),
        "runtime.cluster.deliver_p99_ms": paced.report.latency_p99_ms,
        "runtime.cluster.timer_lag_ratio": max(0.0, 1.0 - goodput),
        "runtime.cluster.boot_s": median([plain.boot_s, saturated.boot_s, paced.boot_s]),
        "runtime.cluster.join_retries": report.join_retry_timeouts
        + paced.report.join_retry_timeouts,
        "runtime.cluster.shutdown_s": median(
            [plain.shutdown_s, saturated.shutdown_s, paced.shutdown_s]
        ),
        "actions_per_s": 1.0 / plain.s_per_action(),
        "trace_overhead_ratio": saturated.s_per_action() / plain.s_per_action(),
        **_codec_and_detector_probes(),
    }
    return WorkloadResult(
        metrics=metrics,
        checks=checks,
        info={
            "n": n,
            "traced_actions_per_s": 1.0 / saturated.s_per_action(),
            "paced_goodput_ratio": goodput,
            "deliver_p50_ms_traced": paced.report.latency_p50_ms,
        },
    )
