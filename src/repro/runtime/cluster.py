"""Localhost UDP cluster harness for S&F.

This is the production shape of the paper's system model: ``n`` nodes,
each with its own UDP socket and its own view, exchanging ``[u, w]``
datagrams with no shared state and no retransmission.  Loss is injected
receiver-side (a datagram is read off the socket and discarded with
probability ``drop_rate``), so the sender's code path is exactly the
lossless one — the sender cannot detect loss, as section 4.1 requires.

The harness runs every node on one asyncio loop in one process.  That
keeps a several-hundred-node cluster cheap (one socket per node; one
heap of due times, one loop timer and one block-fed draw source for the
whole cluster — no task, no future, no per-node generator) while the
messages still traverse the real OS network stack: every send is a
genuine ``sendto`` on 127.0.0.1 and every receive a datagram callback,
with kernel scheduling deciding interleaving — the asynchrony the
discrete-event engine only simulates.

Scenario controls:

* **kill/restart** — a node leaves the initiate clock and its socket is
  closed (its id lingers in other views and drains at the section 6.5.2 rate);
  a restarted node rejoins through the introducer like any newcomer.
* **kill wave** — nodes stopped for good at the 1/3 mark, the
  failure-detection scenario.

Counters stream into :mod:`repro.obs` under ``cluster.*`` names, and the
final :class:`ClusterReport` carries the live outdegree distribution the
``live-degree`` experiment checks against the §6.2 degree Markov chain.
"""

from __future__ import annotations

import asyncio
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import SFParams
from repro.core.sandf import KIND_SANDF, SendForget
from repro.failure import FD_EXT_KEY, DetectorConfig, FailureDetector, PeerState
from repro.net.transport import AsyncioUdpTransport
from repro.net.wire import JoinRequest, Welcome, WireRecord
from repro.obs import get_telemetry
from repro.protocols.base import Message, ProtocolStats, SendEffect
from repro.util.rng import BlockDraws, SeedLike, make_rng
from repro.util.tables import format_table

NodeId = int

#: A killed node counts as detected when more than this fraction of live
#: detectors call it FAILED (and a live node as a false positive, same
#: threshold).
FD_QUORUM = 0.5


def outbound(
    detector: FailureDetector, effect: SendEffect, stats: ProtocolStats
) -> bool:
    """A node's send step under failure detection: may ``effect`` go out?

    A send to a peer ``detector`` has declared ``FAILED`` is suppressed
    (counted in ``stats.extra["fd_suppressed"]``, returns False); any
    other send gets the pending liveness rumors piggybacked under
    :data:`FD_EXT_KEY`, beside whatever else ``message.ext`` holds.
    """
    message = effect.message
    if detector.state_of(message.target) is PeerState.FAILED:
        stats.extra["fd_suppressed"] = stats.extra.get("fd_suppressed", 0) + 1
        return False
    blob = detector.wire_extension()
    if blob is not None:
        ext = dict(message.ext) if message.ext else {}
        ext[FD_EXT_KEY] = blob
        message.ext = ext
    return True


@dataclass
class ClusterConfig:
    """Everything a cluster run needs, as one picklable record.

    ``rate`` is per-node initiate actions per second; with the default
    duration each node gets a few dozen actions — enough for degrees to
    mix (the §6.2 chain converges in tens of actions per node).
    """

    n: int = 50
    view_size: int = 8
    d_low: int = 2
    drop_rate: float = 0.05
    rate: float = 40.0
    duration_s: float = 3.0
    seed: SeedLike = None
    host: str = "127.0.0.1"
    #: Scenario knobs: nodes to kill-and-restart, and nodes to kill *for
    #: good* in one wave at the 1/3 mark (the failure-detection
    #: scenario).
    kill_restart: int = 0
    kill_wave: int = 0
    #: Introducer join handshake: ``join_timeout_s`` is the *first*
    #: attempt's timeout; each retry doubles it (capped at
    #: ``join_backoff_cap_s``) with ±20% jitter, so a hammered or
    #: drop-afflicted introducer sees backed-off, decorrelated retries.
    join_timeout_s: float = 0.25
    join_retries: int = 20
    join_backoff_cap_s: float = 2.0
    #: SWIM-style failure detection (``repro.failure``), liveness gossip
    #: piggybacked on the S&F datagrams.  Timeouts are wall-clock
    #: seconds; size ``suspect_after_s`` well above the worst-pair rumor
    #: refresh age at the configured ``rate`` (see
    #: ``docs/failure_detection.md``) and ``fail_after_s`` above one
    #: rumor round trip, or live nodes get falsely suspected/evicted.
    failure_detection: bool = False
    suspect_after_s: float = 1.5
    fail_after_s: float = 0.75

    def __post_init__(self) -> None:
        """Reject what no run can use, before any socket is bound."""
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")
        self.params()
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if not 0.0 <= self.duration_s < math.inf:
            raise ValueError(f"duration_s must be in [0, inf), got {self.duration_s}")
        if self.kill_restart < 0:
            raise ValueError(
                f"kill_restart must be nonnegative, got {self.kill_restart}"
            )
        if not 0 <= self.kill_wave <= self.n - 3:
            raise ValueError(
                f"kill_wave must be in [0, n - 3] = [0, {self.n - 3}] so that 3 "
                f"nodes survive, got {self.kill_wave}"
            )
        if self.failure_detection:
            self.detector_config()

    def params(self) -> SFParams:
        return SFParams(view_size=self.view_size, d_low=self.d_low)

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            suspect_after=self.suspect_after_s, fail_after=self.fail_after_s
        )

    def bootstrap_degree(self) -> int:
        """Initial outdegree: the simulation experiments' ring bootstrap rule."""
        return self.params().default_bootstrap_degree


class ClusterNode:
    """One S&F node: a socket, a view, and a place on the cluster's clock.

    The node's :class:`SendForget` instance holds *only its own view* —
    ``deliver_effects`` looks up ``message.target`` and finds exactly the
    local state, so the very same protocol class that simulates ``n``
    nodes in-process runs one node here, unchanged.
    """

    def __init__(self, cluster: "LocalCluster", node_id: NodeId, incarnation: int = 0):
        self.cluster = cluster
        self.node_id = node_id
        #: The cluster's one draw source: every node, and every transport's
        #: drop coin, takes the next uniform off the same seeded stream.
        self.rng = cluster.draws
        self.protocol = SendForget(cluster.config.params())
        cfg = cluster.config
        #: SWIM detector (when enabled): heartbeats advance on the
        #: initiate clock, liveness rides the S&F datagrams, and sends to
        #: FAILED peers are suppressed at this node's send seam.  A
        #: restarted node is seeded one incarnation above its previous
        #: life so its ALIVE gossip resurrects stale FAILED records.
        self.detector: Optional[FailureDetector] = (
            FailureDetector(
                node_id, config=cfg.detector_config(), incarnation=incarnation
            )
            if cfg.failure_detection
            else None
        )
        self.transport: Optional[AsyncioUdpTransport] = None
        #: On the initiate clock: set by ``_arm``, cleared by ``stop`` and
        #: by a tick that raises.  The clock drops an entry whose node is
        #: no longer running when it comes due.
        self.running = False
        self._welcome: Optional[asyncio.Future] = None

    async def start(self, bootstrap_ids: Optional[List[NodeId]] = None) -> None:
        """Bind the socket, obtain a view (given or via introducer), go live."""
        cfg = self.cluster.config
        self.transport = await AsyncioUdpTransport.create(
            self._on_record,
            host=cfg.host,
            port=0,
            drop_rate=cfg.drop_rate,
            rng=self.rng,
            resolve=self.cluster.resolve,
            inbound_filter=self._admit,
        )
        try:
            self.cluster.address_book[self.node_id] = self.transport.address
            if bootstrap_ids is None:
                bootstrap_ids = await self._join_via_introducer()
            self.protocol.add_node(self.node_id, bootstrap_ids)
        except BaseException:
            # Leave no half-started node behind; the caller decides
            # whether a failed join is an error or a counted event.
            self.stop()
            raise
        if self.detector is not None:
            self.detector.seed_peers(bootstrap_ids, self.cluster._loop.time())
        self._arm()

    def stop(self) -> None:
        """Crash the node: leave the clock, close the socket.

        No goodbye message — the paper's leave model (section 5).  Other
        nodes keep our id until it drains out of their views.  The address
        book forgets the id only while it still names this socket: a
        restart may have filed a replacement under it since.
        """
        self.running = False
        if self.transport is not None:
            self.transport.close()
            book = self.cluster.address_book
            if book.get(self.node_id) == self.transport.address:
                del book[self.node_id]

    # -- the node's two halves -----------------------------------------

    def _arm(self) -> None:
        """Go live: take a place on the cluster's initiate clock."""
        self.running = True
        self.cluster._schedule(self)

    def _tick(self) -> None:
        """One initiate action; an exception stops this node only."""
        try:
            if self.detector is not None:
                self.detector.beat(self.cluster._loop.time())
            self._route(self.protocol.initiate_effects(self.node_id, self.rng))
        except Exception as exc:  # a node crash must not vanish silently
            self.cluster.errors.append(f"node {self.node_id} initiate: {exc!r}")
            self.running = False

    def _route(self, effects: Tuple[SendEffect, ...]) -> None:
        """Send one step's effects, minus those to peers declared FAILED.

        The detector suppresses those and piggybacks rumors on the rest.
        Suppression is this node's eviction action: to the protocol it is
        indistinguishable from loss (S&F's one tolerated failure), so
        view invariants hold while traffic to the dead stops.
        """
        for effect in effects:
            if self.detector is None or outbound(
                self.detector, effect, self.protocol.stats
            ):
                self.transport.send(effect, self.rng)

    def _on_record(
        self, record: WireRecord, timestamp: Optional[float], addr: Tuple[str, int]
    ) -> None:
        if isinstance(record, Message):
            try:
                if self.detector is not None:
                    now = self.cluster._loop.time()
                    self.detector.observe_direct(record.sender, now)
                    if record.ext:
                        self.detector.absorb_extension(record.ext.get(FD_EXT_KEY), now)
                self._route(self.protocol.deliver_effects(record, self.rng))
            except Exception as exc:
                self.cluster.errors.append(f"node {self.node_id} deliver: {exc!r}")
        elif isinstance(record, Welcome):
            for peer, port in record.address_book.items():
                self.cluster.address_book.setdefault(
                    peer, (self.cluster.config.host, port)
                )
            if self._welcome is not None and not self._welcome.done():
                self._welcome.set_result(record)

    def _admit(self, record: WireRecord) -> bool:
        """Receiver-side filter (control records always pass).

        A message is admitted when it is an S&F ``[u, w]`` addressed to this
        node.  The codec carries every protocol's messages, but
        ``S&F-Receive`` stores a payload whole or not at all on the premise
        that it holds two ids (Observation 5.1): one stray one-id datagram
        would leave the outdegree odd for good.
        """
        if isinstance(record, Message):
            return (
                record.kind == KIND_SANDF
                and len(record.payload) == 2
                and record.target == self.node_id
            )
        return True

    async def _join_via_introducer(self) -> List[NodeId]:
        """Bounded-retry join with exponential backoff and jitter.

        Each attempt waits up to the current timeout for a Welcome; a miss
        (request or Welcome eaten by drop injection) doubles the timeout
        up to ``join_backoff_cap_s``.  The ±20% jitter is a fresh draw per
        attempt, so simultaneous joiners (restart storms,
        flash crowds) decorrelate instead of re-colliding in lockstep.
        """
        cfg = self.cluster.config
        request = JoinRequest(node=self.node_id, port=self.transport.port)
        timeout = cfg.join_timeout_s
        for _ in range(cfg.join_retries):
            self._welcome = self.cluster._loop.create_future()
            self.transport.send_record(request, self.cluster.introducer_address)
            jittered = timeout * (0.8 + 0.4 * self.rng.random())
            try:
                welcome = await asyncio.wait_for(self._welcome, timeout=jittered)
            except asyncio.TimeoutError:
                self.cluster.join_retry_timeouts += 1
                timeout = min(timeout * 2.0, cfg.join_backoff_cap_s)
                continue
            try:
                cfg.params().validate_bootstrap(len(welcome.bootstrap))
            except ValueError as exc:
                raise RuntimeError(f"node {self.node_id} cannot join: {exc}") from None
            return list(welcome.bootstrap)
        raise RuntimeError(
            f"node {self.node_id} could not join after {cfg.join_retries} attempts"
        )


@dataclass
class ClusterReport:
    """What a cluster run measured; ``format()`` renders the summary."""

    n: int
    live_nodes: int
    duration_s: float
    drop_rate: float
    actions: int
    datagrams_sent: int
    datagrams_received: int
    datagrams_dropped: int
    datagrams_filtered: int
    decode_errors: int
    unroutable: int
    restarts: int
    degree_counts: Dict[int, int]
    degree_violations: List[str]
    errors: List[str]
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    #: Errors the OS reported on a node's socket (``error_received``): a
    #: refused ``sendto``, a full buffer, an ICMP refusal where the
    #: platform surfaces one on an unconnected socket (Linux does not).
    socket_errors: int = 0
    #: Join-path robustness: retry timeouts absorbed by backoff, and
    #: joins that exhausted every retry (counted, not fatal — a node that
    #: cannot rejoin is a fact of the run, not a harness bug).
    join_retry_timeouts: int = 0
    join_failures: int = 0
    #: Failure detection (when enabled): the kill set, which of them a
    #: quorum of live detectors declared FAILED, and live nodes a quorum
    #: falsely declared FAILED.  ``fd_suppressed`` counts sends evicted
    #: at the send seam because the target was considered FAILED.
    fd_enabled: bool = False
    killed_nodes: List[int] = field(default_factory=list)
    fd_detected: List[int] = field(default_factory=list)
    fd_missed: List[int] = field(default_factory=list)
    fd_false_positives: List[int] = field(default_factory=list)
    fd_suppressed: int = 0
    #: Victims the kill wave asked for beyond the nodes still live at the
    #: one-third mark (nodes that had stopped on an exception): a short
    #: wave kills nobody and fails the run.
    wave_shortfall: int = 0

    def detection_ok(self) -> bool:
        """Every killed node detected, no live node falsely failed."""
        if not self.fd_enabled:
            return True
        return not self.fd_missed and not self.fd_false_positives

    def degree_pmf(self) -> Dict[int, float]:
        total = sum(self.degree_counts.values())
        if total == 0:
            return {}
        return {d: c / total for d, c in sorted(self.degree_counts.items())}

    def observed_drop_fraction(self) -> float:
        if self.datagrams_received == 0:
            return 0.0
        return self.datagrams_dropped / self.datagrams_received

    def ok(self) -> bool:
        """Clean run: views in bounds, no node raised, the kill wave
        complete, detection correct."""
        return (
            not self.degree_violations
            and not self.errors
            and not self.wave_shortfall
            and self.detection_ok()
        )

    def format(self) -> str:
        degrees = ", ".join(
            f"{d}:{c}" for d, c in sorted(self.degree_counts.items())
        )
        rows = [
            ["nodes (live/total)", f"{self.live_nodes}/{self.n}"],
            ["duration [s]", f"{self.duration_s:.2f}"],
            ["actions", self.actions],
            ["datagrams sent", self.datagrams_sent],
            ["datagrams received", self.datagrams_received],
            ["dropped (injected)", self.datagrams_dropped],
            ["filtered (not [u, w])", self.datagrams_filtered],
            ["decode errors", self.decode_errors],
            ["unroutable", self.unroutable],
            ["socket errors", self.socket_errors],
            ["observed drop fraction", f"{self.observed_drop_fraction():.4f}"],
            ["restarts", self.restarts],
            ["latency p50 [ms]", f"{self.latency_p50_ms:.3f}"],
            ["latency p99 [ms]", f"{self.latency_p99_ms:.3f}"],
            ["outdegree counts", degrees],
            ["degree violations", len(self.degree_violations)],
            ["node errors", len(self.errors)],
            ["join retry timeouts", self.join_retry_timeouts],
            ["join failures", self.join_failures],
        ]
        if self.wave_shortfall:
            rows.append(["kill wave shortfall", self.wave_shortfall])
        if self.fd_enabled:
            rows += [
                ["killed nodes", len(self.killed_nodes)],
                ["detected FAILED (quorum)", len(self.fd_detected)],
                ["missed detections", len(self.fd_missed)],
                ["false positives", len(self.fd_false_positives)],
                ["suppressed sends", self.fd_suppressed],
            ]
        return format_table(
            ["quantity", "value"],
            rows,
            title=f"UDP cluster (n={self.n}, drop={self.drop_rate})",
        )


#: The transport ledger a report totals: report key -> transport attribute.
_TRANSPORT_COUNTERS = {
    "sent": "datagrams_sent",
    "received": "datagrams_received",
    "dropped": "dropped",
    "filtered": "filtered",
    "decode_errors": "decode_errors",
    "unroutable": "unroutable",
    "socket_errors": "socket_errors",
}


def _tally(totals: Counter, transport: AsyncioUdpTransport) -> None:
    for key, attribute in _TRANSPORT_COUNTERS.items():
        totals[key] += getattr(transport, attribute)


def _percentile(ordered: np.ndarray, q: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0.0 if empty)."""
    if ordered.size == 0:
        return 0.0
    return float(ordered[min(ordered.size - 1, int(q * ordered.size))])


class LocalCluster:
    """Boots, disrupts, observes, and tears down a localhost S&F cluster."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.rng = make_rng(config.seed)
        #: Scalar draws for every node and transport, off ``self.rng``.
        self.draws = BlockDraws(self.rng)
        self.address_book: Dict[NodeId, Tuple[str, int]] = {}
        self.nodes: Dict[NodeId, ClusterNode] = {}
        self.errors: List[str] = []
        self.restarts = 0
        self.join_retry_timeouts = 0
        self.join_failures = 0
        self.wave_shortfall = 0
        #: Ids currently dead by :meth:`kill` (a successful restart
        #: removes the id again) — the ground truth the failure-detection
        #: verdict is judged against.
        self.killed: List[NodeId] = []
        #: Incarnation each id held when last buried; restarts come back
        #: one above it so their ALIVE gossip beats stale FAILED records.
        self._fd_incarnations: Dict[NodeId, int] = {}
        self._introducer: Optional[AsyncioUdpTransport] = None
        #: The initiate clock: a heap of ``(when, seq, node)``, one entry
        #: per running node, and the one loop timer armed for its head.
        #: ``seq`` is unique, so two entries never compare their nodes.
        self._clock: List[Tuple[float, int, ClusterNode]] = []
        self._clock_seq = count()
        self._clock_handle: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Counters of killed incarnations, so totals survive restarts.
        self._grave_actions = 0
        self._grave_suppressed = 0
        self._grave_transport = Counter()
        self._grave_latency = array("d")

    # -- shared lookups (the "DNS" of the cluster) ----------------------

    def resolve(self, node_id: NodeId) -> Optional[Tuple[str, int]]:
        return self.address_book.get(node_id)

    @property
    def introducer_address(self) -> Tuple[str, int]:
        if self._introducer is None:
            raise RuntimeError("cluster is not started")
        return self._introducer.address

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Introducer up, then all ``n`` nodes on a ring bootstrap.

        The initial population bootstraps directly (the experiments' ring
        topology — regular and weakly connected); the introducer path is
        exercised by every restart and late join.
        """
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._introducer = await AsyncioUdpTransport.create(
            self._on_introducer, host=cfg.host, port=0, rng=self.draws
        )
        degree = cfg.bootstrap_degree()
        for node_id in range(cfg.n):
            self.nodes[node_id] = ClusterNode(self, node_id)
        await asyncio.gather(
            *(
                self.nodes[u].start(
                    [(u + k) % cfg.n for k in range(1, degree + 1)]
                )
                for u in range(cfg.n)
            )
        )

    async def shutdown(self) -> None:
        if self._clock_handle is not None:
            self._clock_handle.cancel()
            self._clock_handle = None
        self._clock.clear()
        for node in self.nodes.values():
            node.stop()
        if self._introducer is not None:
            self._introducer.close()

    # -- the initiate clock ---------------------------------------------

    def _schedule(self, node: ClusterNode) -> None:
        """Give ``node`` its first due time; re-aim the timer if it leads."""
        gap = self.draws.exponential(1.0 / self.config.rate)
        entry = (self._loop.time() + gap, next(self._clock_seq), node)
        heappush(self._clock, entry)
        if self._clock[0] is entry:
            if self._clock_handle is not None:
                self._clock_handle.cancel()
            self._clock_handle = self._loop.call_at(entry[0], self._fire)

    def _fire(self) -> None:
        """Tick every node due by now, then aim the timer at the next one.

        A node's next due time is an exponential gap after its tick, like
        the DES engine's clocks (section 4.1).  Each re-push therefore lies
        after the cut-off read on entry: a firing ticks a node at most
        once and the loop polls the sockets before the next, so overdue
        clocks cannot starve the receive path.
        """
        clock, seq = self._clock, self._clock_seq
        now, exponential = self._loop.time, self.draws.exponential
        mean_gap = 1.0 / self.config.rate
        cutoff = now()
        while clock and clock[0][0] <= cutoff:
            node = clock[0][2]
            if node.running:
                node._tick()
            if node.running:
                heapreplace(clock, (now() + exponential(mean_gap), next(seq), node))
            else:
                heappop(clock)
        self._clock_handle = (
            self._loop.call_at(clock[0][0], self._fire) if clock else None
        )

    def _on_introducer(
        self, record: WireRecord, timestamp: Optional[float], addr: Tuple[str, int]
    ) -> None:
        if not isinstance(record, JoinRequest):
            return
        cfg = self.config
        self.address_book[record.node] = (cfg.host, record.port)
        live = [
            nid
            for nid, node in self.nodes.items()
            if node.running and nid != record.node
        ]
        degree = cfg.bootstrap_degree()
        if len(live) >= degree:
            picks = self.rng.choice(len(live), size=degree, replace=False)
            bootstrap = [live[int(i)] for i in picks]
        else:
            # Too few distinct live peers: repeat them, as the ring
            # bootstrap does (a view may hold an id more than once).
            bootstrap = [live[i % len(live)] for i in range(degree)] if live else []
        welcome = Welcome(
            node=record.node,
            bootstrap=bootstrap,
            address_book={nid: a[1] for nid, a in self.address_book.items()},
        )
        self._introducer.send_record(welcome, addr)

    # -- scenarios ------------------------------------------------------

    async def kill(self, node_id: NodeId) -> None:
        # Pop first: a killed incarnation's counters move to the graveyard,
        # so a node that is never restarted cannot be double-counted.
        node = self.nodes.pop(node_id)
        self._bury(node)
        node.stop()
        self.killed.append(node_id)

    async def restart(self, node_id: NodeId) -> bool:
        """Bring a killed node back as a newcomer, via the introducer.

        Returns whether the rejoin succeeded.  A join that exhausts its
        backed-off retries is *counted* (``join_failures``), not raised:
        the node simply stays dead, which is a legitimate outcome of a
        lossy join path — and one the failure detector should then report.
        """
        replacement = ClusterNode(
            self, node_id, incarnation=self._fd_incarnations.get(node_id, -1) + 1
        )
        try:
            await replacement.start(bootstrap_ids=None)
        except RuntimeError:
            self.join_failures += 1
            return False
        self.nodes[node_id] = replacement
        self.restarts += 1
        if node_id in self.killed:
            self.killed.remove(node_id)
        return True

    def _bury(self, node: ClusterNode) -> None:
        """Fold a dying incarnation's counters into the run totals."""
        if node.detector is not None:
            self._fd_incarnations[node.node_id] = node.detector.incarnation
        self._grave_actions += node.protocol.stats.actions
        self._grave_suppressed += node.protocol.stats.extra.get("fd_suppressed", 0)
        transport = node.transport
        if transport is not None:
            _tally(self._grave_transport, transport)
            self._grave_latency.extend(transport.latency_samples)

    # -- observation ----------------------------------------------------

    def live_nodes(self) -> List[ClusterNode]:
        return [node for node in self.nodes.values() if node.running]

    def degree_counts(self) -> Counter:
        return Counter(
            node.protocol.outdegree(node.node_id) for node in self.live_nodes()
        )

    def degree_violations(self) -> List[str]:
        """Observation 5.1 violations across all live views (empty = good)."""
        violations = []
        for node in self.live_nodes():
            try:
                node.protocol.check_invariant()
            except AssertionError as exc:
                violations.append(str(exc))
        return violations

    def detection_verdict(self) -> Tuple[List[NodeId], List[NodeId], List[NodeId]]:
        """``(detected, missed, false_positives)`` under the quorum rule.

        A killed id is *detected* when more than ``FD_QUORUM`` of live
        detectors call it FAILED; a live id with the same level of FAILED
        votes among its peers is a *false positive*.
        """
        detectors = [
            node for node in self.live_nodes() if node.detector is not None
        ]
        if not detectors:
            return [], list(sorted(self.killed)), []
        detected: List[NodeId] = []
        missed: List[NodeId] = []
        for victim in sorted(self.killed):
            votes = sum(
                1
                for node in detectors
                if node.detector.state_of(victim) is PeerState.FAILED
            )
            (detected if votes > FD_QUORUM * len(detectors) else missed).append(victim)
        false_positives: List[NodeId] = []
        for node in detectors:
            peers = [d for d in detectors if d.node_id != node.node_id]
            if not peers:
                continue
            votes = sum(
                1
                for peer in peers
                if peer.detector.state_of(node.node_id) is PeerState.FAILED
            )
            if votes > FD_QUORUM * len(peers):
                false_positives.append(node.node_id)
        return detected, missed, sorted(false_positives)

    def publish_metrics(self, report: ClusterReport, latency_s: np.ndarray) -> None:
        """Stream run totals into the process telemetry (``cluster.*``)."""
        tel = get_telemetry()
        if not tel.metrics_on:
            return
        tel.inc("cluster.actions", report.actions)
        tel.inc("cluster.datagrams_sent", report.datagrams_sent)
        tel.inc("cluster.datagrams_received", report.datagrams_received)
        tel.inc("cluster.datagrams_dropped", report.datagrams_dropped)
        tel.inc("cluster.datagrams_filtered", report.datagrams_filtered)
        tel.inc("cluster.decode_errors", report.decode_errors)
        tel.inc("cluster.socket_errors", report.socket_errors)
        tel.inc("cluster.restarts", report.restarts)
        tel.inc("cluster.join_retry_timeouts", report.join_retry_timeouts)
        tel.inc("cluster.join_failures", report.join_failures)
        tel.set_gauge("cluster.live_nodes", report.live_nodes)
        if report.fd_enabled:
            tel.inc("cluster.fd_suppressed", report.fd_suppressed)
            tel.set_gauge("cluster.fd_killed", len(report.killed_nodes))
            tel.set_gauge("cluster.fd_detected", len(report.fd_detected))
            tel.set_gauge("cluster.fd_missed", len(report.fd_missed))
            tel.set_gauge(
                "cluster.fd_false_positives", len(report.fd_false_positives)
            )
        if report.degree_counts:
            degrees = list(report.degree_counts.items())
            total = sum(c for _, c in degrees)
            mean = sum(d * c for d, c in degrees) / total
            tel.set_gauge("cluster.outdegree_mean", mean)
            tel.set_gauge("cluster.outdegree_min", min(d for d, _ in degrees))
            tel.set_gauge("cluster.outdegree_max", max(d for d, _ in degrees))
        for latency in latency_s:
            tel.observe("cluster.delivery_latency_s", float(latency))

    def _all_latency_samples(self) -> array:
        samples = array("d", self._grave_latency)
        for node in self.nodes.values():
            if node.transport is not None:
                samples.extend(node.transport.latency_samples)
        return samples

    def report(self, publish: bool = True) -> ClusterReport:
        totals = Counter(self._grave_transport)
        actions, suppressed = self._grave_actions, self._grave_suppressed
        for node in self.nodes.values():
            actions += node.protocol.stats.actions
            suppressed += node.protocol.stats.extra.get("fd_suppressed", 0)
            if node.transport is not None:
                _tally(totals, node.transport)
        # One concatenation, sorted in place: every percentile and the
        # published histogram read the same unboxed buffer.
        latency = np.frombuffer(self._all_latency_samples(), dtype=np.float64)
        latency.sort()
        fd_enabled = self.config.failure_detection
        if fd_enabled:
            detected, missed, false_positives = self.detection_verdict()
        else:
            detected, missed, false_positives = [], [], []
        report = ClusterReport(
            n=self.config.n,
            live_nodes=len(self.live_nodes()),
            duration_s=self.config.duration_s,
            drop_rate=self.config.drop_rate,
            actions=actions,
            datagrams_sent=totals["sent"],
            datagrams_received=totals["received"],
            datagrams_dropped=totals["dropped"],
            datagrams_filtered=totals["filtered"],
            decode_errors=totals["decode_errors"],
            unroutable=totals["unroutable"],
            restarts=self.restarts,
            degree_counts=dict(sorted(self.degree_counts().items())),
            degree_violations=self.degree_violations(),
            errors=list(self.errors),
            latency_p50_ms=_percentile(latency, 0.50) * 1e3,
            latency_p99_ms=_percentile(latency, 0.99) * 1e3,
            socket_errors=totals["socket_errors"],
            join_retry_timeouts=self.join_retry_timeouts,
            join_failures=self.join_failures,
            fd_enabled=fd_enabled,
            killed_nodes=sorted(self.killed),
            fd_detected=detected,
            fd_missed=missed,
            fd_false_positives=false_positives,
            fd_suppressed=suppressed,
            wave_shortfall=self.wave_shortfall,
        )
        if publish:
            self.publish_metrics(report, latency)
        return report

    # -- scripted run ---------------------------------------------------

    async def run(self) -> ClusterReport:
        """The standard scenario: a warm third, then the disruptions, then
        two thirds to settle.

        The disruptions are the kill/restarts and an optional permanent
        *kill wave* (``kill_wave`` random victims stopped for good) — the
        failure-detection scenario: survivors must declare every victim
        FAILED, and no survivor, before the run ends.  If fewer nodes are
        live than the wave asks for, it kills nobody and the report names
        the shortfall.  The cluster is shut down however the run ends.
        """
        cfg = self.config
        try:
            await self.start()
            third = cfg.duration_s / 3.0
            await asyncio.sleep(third)
            if cfg.kill_wave > 0:
                live = [n.node_id for n in self.live_nodes()]
                if len(live) < cfg.kill_wave:
                    self.wave_shortfall = cfg.kill_wave - len(live)
                else:
                    picks = self.rng.choice(len(live), size=cfg.kill_wave, replace=False)
                    for index in picks:
                        await self.kill(live[int(index)])
            for _ in range(cfg.kill_restart):
                live = [n.node_id for n in self.live_nodes()]
                if not live:
                    break
                victim = live[int(self.rng.integers(len(live)))]
                await self.kill(victim)
                await asyncio.sleep(min(0.05, third / 4))
                await self.restart(victim)
            await asyncio.sleep(2 * third)
            return self.report()
        finally:
            await self.shutdown()


def run_cluster(config: ClusterConfig) -> ClusterReport:
    """Synchronous entry point: boot, run the scenario, report, tear down.

    Used by the CLI (``repro cluster``), the ``live-degree`` experiment
    cell and the CI smoke job — none of which want to own an event loop.
    """
    return asyncio.run(LocalCluster(config).run())
