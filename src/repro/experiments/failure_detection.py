"""Failure detection riding S&F gossip: completeness, accuracy, latency.

The paper's failure model (§4.1) is silent crashes plus message loss;
S&F tolerates both but never *reports* them.  This experiment installs
the SWIM-style :class:`~repro.failure.layer.FailureDetectorLayer` on a
simulated S&F system — liveness rumors piggyback on the ``[u, w]``
messages the protocol already sends, with no extra traffic — and
crashes a wave of nodes mid-run.  Measured per loss rate:

* **completeness** — every crashed node ends up ``FAILED`` at a quorum
  of survivors;
* **accuracy** — no survivor is declared ``FAILED`` by a quorum (false
  positives), despite loss delaying its rumors;
* **latency** — periods from the crash to each surviving observer's
  ``FAILED`` verdict (mean / max over observer–victim pairs).

Timeouts are phrased in periods of the *observer's own clock* (one beat
per initiate).  They must cover the rumor-refresh tail, which scales
with ``1 / p_send`` where ``p_send ≈ d(d−1)/(s(s−1))`` is the chance an
initiate actually sends (both sampled slots nonempty) — the dense
regime used here keeps that near 0.6.  See docs/failure_detection.md
for the sizing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.experiments import registry
from repro.failure import DetectorConfig, FailureDetectorLayer, PeerState
from repro.net.loss import UniformLoss
from repro.util.tables import format_table


@dataclass
class FailureDetectionRecord:
    """One cell: one crash wave under one loss rate."""

    n: int
    view_size: int
    d_low: int
    loss_rate: float
    killed: List[int]
    detected: List[int]
    missed: List[int]
    false_positives: List[int]
    latency_mean: Optional[float]
    latency_max: Optional[float]
    pair_coverage: float
    suppressed_sends: int
    refutations: int

    def detection_ok(self) -> bool:
        """Strong completeness and (quorum) accuracy both held."""
        return not self.missed and not self.false_positives


@dataclass
class FailureDetectionResult:
    """The sweep: one row per loss rate."""

    rows: List[FailureDetectionRecord]

    def detection_ok(self) -> bool:
        return all(row.detection_ok() for row in self.rows)

    def format(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    f"{row.loss_rate:.2f}",
                    len(row.killed),
                    len(row.detected),
                    len(row.missed),
                    len(row.false_positives),
                    "-" if row.latency_mean is None else f"{row.latency_mean:.1f}",
                    "-" if row.latency_max is None else f"{row.latency_max:.0f}",
                    f"{row.pair_coverage:.3f}",
                    row.suppressed_sends,
                ]
            )
        first = self.rows[0]
        return format_table(
            [
                "loss",
                "killed",
                "detected",
                "missed",
                "false pos",
                "lat mean",
                "lat max",
                "pair cov",
                "suppressed",
            ],
            table_rows,
            title=(
                f"SWIM-on-S&F failure detection (n={first.n}, "
                f"s={first.view_size}, dL={first.d_low}; latency in periods)"
            ),
        )


def _build(point: dict, seed) -> SequentialEngine:
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    inner = SendForget(params)
    n = point["n"]
    init = point["init_outdegree"]
    for u in range(n):
        inner.add_node(u, [(u + k) % n for k in range(1, init + 1)])
    layer = FailureDetectorLayer(
        inner,
        DetectorConfig(
            suspect_after=point["suspect_after"],
            fail_after=point["fail_after"],
            piggyback_limit=point["piggyback"],
        ),
    )
    return SequentialEngine(layer, UniformLoss(point["loss"]), seed=seed)


def points(
    n: int = 60,
    kill: int = 10,
    losses: Sequence[float] = (0.0, 0.05, 0.10),
    detect_rounds: int = 150,
) -> List[dict]:
    """One crash wave of ``kill`` nodes per loss rate."""
    # Dense regime on purpose: steady-state degree stays well above d_low,
    # so p_send (and with it the liveness-rumor refresh rate) stays high.
    base = {
        "view_size": 24,
        "d_low": 16,
        "init_outdegree": 16,
        "suspect_after": 48.0,
        "fail_after": 24.0,
        "piggyback": 64,
        "warm_rounds": 20,
        "detect_rounds": detect_rounds,
    }
    return [
        dict(base, n=n, kill=kill, loss=loss, seed=20260808 + i)
        for i, loss in enumerate(losses)
    ]


@registry.experiment(
    "failure-detection",
    anchor="§4.1 failure model + SWIM detection on S&F traffic",
    description="crash a wave mid-run; measure detection completeness/accuracy/latency",
    points=points,
    fast=dict(n=30, kill=5, losses=(0.05,), detect_rounds=120),
    aggregate=lambda points, records: FailureDetectionResult(rows=list(records)),
)
def _cell(point: dict, seed, *, backend: str = "reference") -> FailureDetectionRecord:
    """One crash wave: warm up, kill, keep gossiping, read the verdicts."""
    engine = _build(point, seed)
    layer: FailureDetectorLayer = engine.protocol
    engine.run_rounds(point["warm_rounds"])

    victims = list(range(point["kill"]))
    for victim in victims:
        layer.remove_node(victim)
    # Each surviving observer's clock reading at the instant of the crash
    # (clocks are per-node beat counts, so latency must be per-observer).
    clock_at_kill = {
        node: detector.heartbeat for node, detector in layer.detectors.items()
    }
    engine.run_rounds(point["detect_rounds"])

    detected = layer.failed_by_quorum(quorum=0.5)
    victim_set = set(victims)
    missed = sorted(victim_set - set(detected))
    false_positives = sorted(set(detected) - victim_set)

    # Detection latency per (observer, victim) pair, in observer periods.
    latencies: List[float] = []
    for observer, peer, _old, new, _inc, now in layer.transitions:
        if new is PeerState.FAILED and peer in victim_set:
            if observer in clock_at_kill:
                latencies.append(now - clock_at_kill[observer])
    pairs = len(clock_at_kill) * len(victims)
    engine.stats.check_conservation()
    summary = layer.summary()
    return FailureDetectionRecord(
        n=point["n"],
        view_size=point["view_size"],
        d_low=point["d_low"],
        loss_rate=point["loss"],
        killed=victims,
        detected=detected,
        missed=missed,
        false_positives=false_positives,
        latency_mean=(sum(latencies) / len(latencies)) if latencies else None,
        latency_max=max(latencies) if latencies else None,
        pair_coverage=(len(latencies) / pairs) if pairs else 1.0,
        suppressed_sends=summary.get("suppressed_sends", 0),
        refutations=summary.get("refutations", 0),
    )
