"""SWIM-style failure detection layered on S&F gossip traffic.

The paper's leave model (section 5) is silent: a crashed node simply
stops participating and its id drains out of live views at the section
6.5.2 rate.  A production membership service additionally has to *name*
the crashed nodes — so operators can evict them, rebalance, and alarm.
This module supplies that layer without touching the protocol: a
per-node :class:`FailureDetector` that

* tracks every known peer through ``ALIVE → SUSPECTED → FAILED``
  (:class:`PeerState`), the SWIM suspicion mechanism (Das, Gupta &
  Motivala; the shape also used by the UDP membership daemons in the
  related work);
* carries an **incarnation number** per peer for refutation: a node that
  learns it is suspected increments its own incarnation and gossips
  ``ALIVE`` at the higher incarnation, which overrides the suspicion
  everywhere it reaches (rumors about incarnation ``i`` are beaten only
  by fresher incarnations — stale evidence can never resurrect or kill);
* carries a **heartbeat counter** per peer as the liveness signal: each
  node increments its own heartbeat every local period and the update
  spreads epidemically, so "no heartbeat progress for
  ``suspect_after`` periods" is the suspicion trigger even for peers
  the node never talks to directly;
* disseminates updates by **piggybacking** on the protocol's existing
  ``[u, w]`` traffic (the :attr:`~repro.protocols.base.Message.ext`
  envelope, schema-versioned by :data:`FD_WIRE_VERSION`) — no probe
  messages, no extra datagrams, exactly SWIM's
  dissemination-on-existing-traffic idea.

The detector is **deterministic and RNG-free**: it never draws
randomness (piggyback selection is a fixed priority order) and it keeps
no wall-clock state of its own — every mutating entry point takes the
caller's notion of ``now`` (seconds in the UDP runtime).  Two detectors
fed the same event sequence are bit-identical.

State-machine guarantees (property-tested in
``tests/test_failure_detector.py``):

* a peer only reaches ``FAILED`` through ``SUSPECTED`` — transitions are
  emitted for both hops even when a ``FAILED`` rumor arrives against an
  ``ALIVE`` record;
* an ``ALIVE`` update with a strictly higher incarnation always
  overrides ``SUSPECTED`` (refutation wins), and nothing at the same or
  lower incarnation does;
* ``FAILED`` is sticky at its incarnation: only an ``ALIVE`` with a
  strictly higher incarnation (a restarted/reborn peer) resurrects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Dict, List, Optional, Sequence

NodeId = int

#: Version of the liveness-gossip extension blob riding in
#: ``Message.ext["fd"]``.  Bump on any incompatible change to the entry
#: layout; decoders ignore (and count) other versions rather than
#: guessing at liveness — a misread rumor could evict a healthy node.
FD_WIRE_VERSION = 1

#: The key under which the liveness gossip rides in ``Message.ext``.
FD_EXT_KEY = "fd"


class PeerState(IntEnum):
    """Liveness verdict for one peer (wire-encoded as the int value)."""

    ALIVE = 0
    SUSPECTED = 1
    FAILED = 2


@dataclass(frozen=True)
class LivenessUpdate:
    """One gossip rumor: ``peer`` is in ``state`` at ``incarnation``.

    ``heartbeat`` is the peer's own period counter as known to the
    rumor's originator; within one incarnation, higher heartbeats are
    fresher evidence.  Rumors are orderable: ``supersedes`` decides
    whether this rumor carries information over an already-known one.
    """

    peer: NodeId
    state: PeerState
    incarnation: int
    heartbeat: int

    def encode(self) -> List[int]:
        return [int(self.peer), int(self.state), int(self.incarnation),
                int(self.heartbeat)]

    @classmethod
    def decode(cls, raw: Any) -> "LivenessUpdate":
        """Inverse of :meth:`encode`; ``ValueError`` for any other shape.

        Strict on purpose: exactly four plain ints (no bools, floats or
        digit strings) and a known :class:`PeerState`.
        """
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 4
            or not all(type(field) is int for field in raw)
        ):
            raise ValueError(f"malformed liveness entry {raw!r}")
        peer, state, incarnation, heartbeat = raw
        return cls(peer, PeerState(state), incarnation, heartbeat)


@dataclass
class DetectorConfig:
    """Tuning knobs, in the caller's time unit (periods or seconds).

    ``suspect_after``: no heartbeat progress from a peer for this long
    → ``SUSPECTED``.  Liveness travels only on the protocol's own
    traffic, so this must comfortably exceed the *worst-pair* rumor
    propagation time — empirically ``O(log n)`` hops of ``1/p_send``
    periods each, where ``p_send`` is the probability an initiate
    actually sends (for S&F, the both-slots-nonempty probability; well
    under 1 near the ``dL`` steady state).  A ~3× margin over the
    typical worst-pair refresh age keeps false suspicion at zero; the
    defaults are sized for ``n ≈ 30–100`` in a dense-view regime.

    ``fail_after``: time in ``SUSPECTED`` without refutation →
    ``FAILED``.  This is the refutation window: a falsely suspected node
    needs the suspicion rumor to reach it and its higher-incarnation
    ``ALIVE`` to travel back within this budget — size it above one
    rumor round trip.

    ``piggyback_limit``: max liveness entries attached to one outgoing
    protocol message.  Entries are ~4 small ints; a budget covering the
    whole membership (the default) costs ~1 KiB per datagram at
    ``n = 64`` and makes every delivery refresh every queued peer, which
    collapses the refresh-gap tail.  Tighten it only when wire size
    matters more than detection quality.

    ``retransmit``: how many outgoing messages each queued update rides
    before it is dropped (SWIM's λ·log n dissemination budget, fixed
    here: freshness re-enqueues an entry anyway).
    """

    suspect_after: float = 48.0
    fail_after: float = 24.0
    piggyback_limit: int = 64
    retransmit: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.suspect_after < math.inf:
            raise ValueError(
                f"suspect_after must be positive and finite, got {self.suspect_after}"
            )
        if not 0 < self.fail_after < math.inf:
            raise ValueError(
                f"fail_after must be positive and finite, got {self.fail_after}"
            )
        if self.piggyback_limit < 1:
            raise ValueError(
                f"piggyback_limit must be at least 1, got {self.piggyback_limit}"
            )
        if self.retransmit < 1:
            raise ValueError(f"retransmit must be at least 1, got {self.retransmit}")


@dataclass
class PeerRecord:
    """Everything one detector believes about one peer."""

    state: PeerState
    incarnation: int
    heartbeat: int
    #: Last time liveness evidence for this peer arrived (heartbeat
    #: progress, higher incarnation, or a datagram from the peer itself).
    last_refresh: float
    #: When the record entered SUSPECTED (meaningless otherwise).
    suspected_at: float = 0.0


@dataclass
class _Queued:
    update: LivenessUpdate
    sends_remaining: int
    #: Round-robin position: lowest goes out first, and a picked entry
    #: with budget left moves to the back.  Fair deterministic coverage —
    #: a fixed priority (e.g. peer id) would starve whoever sorts last.
    seq: int


#: ``on_transition(peer, old_state, new_state, incarnation, now)``.
TransitionHook = Callable[[NodeId, Optional[PeerState], PeerState, int, float], None]


class FailureDetector:
    """One node's SWIM-style liveness view over its peers.

    Drive it with four entry points, all taking the caller's clock:

    * :meth:`beat` — once per local period (one initiate action in the
      simulation, one timer tick in the UDP runtime): advances the own
      heartbeat, gossips it, and runs the suspicion/failure timeouts;
    * :meth:`observe_direct` — a datagram from ``peer`` arrived
      (unforgeable liveness evidence);
    * :meth:`absorb` / :meth:`absorb_extension` — merge piggybacked
      rumors from an incoming message;
    * :meth:`piggyback` / :meth:`wire_extension` — updates to attach to
      an outgoing message.
    """

    def __init__(
        self,
        node_id: NodeId,
        config: Optional[DetectorConfig] = None,
        incarnation: int = 0,
        on_transition: Optional[TransitionHook] = None,
    ):
        self.node_id = node_id
        self.config = config if config is not None else DetectorConfig()
        self.incarnation = incarnation
        self.heartbeat = 0
        self.on_transition = on_transition
        self._records: Dict[NodeId, PeerRecord] = {}
        self._queue: Dict[NodeId, _Queued] = {}
        self._seq = 0
        self.counters: Dict[str, int] = {
            "refutations": 0,
            "suspected": 0,
            "failed": 0,
            "refuted_peers": 0,
            "resurrected": 0,
            "ignored_extensions": 0,
        }

    # ------------------------------------------------------------------
    # Local clock
    # ------------------------------------------------------------------

    def beat(self, now: float) -> List[NodeId]:
        """One local period: heartbeat, self-gossip, timeouts.

        Returns the peers newly declared ``FAILED`` by this beat (for
        eviction hooks).
        """
        self.heartbeat += 1
        self._enqueue(self._self_update())
        return self._run_timeouts(now)

    def _self_update(self) -> LivenessUpdate:
        return LivenessUpdate(
            self.node_id, PeerState.ALIVE, self.incarnation, self.heartbeat
        )

    def _run_timeouts(self, now: float) -> List[NodeId]:
        newly_failed: List[NodeId] = []
        for peer, record in self._records.items():
            if record.state is PeerState.ALIVE:
                if now - record.last_refresh >= self.config.suspect_after:
                    self._transition(peer, record, PeerState.SUSPECTED, now)
            elif record.state is PeerState.SUSPECTED:
                if now - record.suspected_at >= self.config.fail_after:
                    self._transition(peer, record, PeerState.FAILED, now)
                    newly_failed.append(peer)
        return newly_failed

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def seed_peers(self, peers: Sequence[NodeId], now: float) -> None:
        """Register bootstrap peers as ``ALIVE`` as of ``now``.

        A detector can only fail peers it knows; seeding the bootstrap
        view means even a peer that crashes before its first heartbeat
        rumor spreads is eventually timed out.
        """
        for peer in peers:
            if peer == self.node_id or peer in self._records:
                continue
            self._records[peer] = PeerRecord(
                PeerState.ALIVE, incarnation=0, heartbeat=0, last_refresh=now
            )

    def observe_direct(self, peer: NodeId, now: float) -> None:
        """A datagram from ``peer`` itself arrived: unforgeable evidence.

        Refreshes the evidence clock; for a ``SUSPECTED`` peer it extends
        the failure deadline (the rumor mill still needs the incarnation
        refutation to clear the suspicion, but a peer we are literally
        hearing from should not be declared ``FAILED`` mid-refutation).
        ``FAILED`` stays sticky — only a higher incarnation resurrects.
        """
        if peer == self.node_id:
            return
        record = self._records.get(peer)
        if record is None:
            self._records[peer] = PeerRecord(
                PeerState.ALIVE, incarnation=0, heartbeat=0, last_refresh=now
            )
            return
        if record.state is PeerState.FAILED:
            return
        record.last_refresh = now
        if record.state is PeerState.SUSPECTED:
            record.suspected_at = now

    def absorb(self, update: LivenessUpdate, now: float) -> bool:
        """Merge one rumor under SWIM precedence; True if anything changed.

        A rumor that changed this record is re-enqueued for further
        dissemination (epidemic spreading); a stale rumor dies here.
        """
        if update.peer == self.node_id:
            return self._maybe_refute(update)
        record = self._records.get(update.peer)
        if record is None:
            return self._learn(update, now)
        changed = self._merge(update, record, now)
        if changed:
            self._enqueue(
                LivenessUpdate(
                    update.peer, record.state, record.incarnation, record.heartbeat
                )
            )
        return changed

    def _maybe_refute(self, update: LivenessUpdate) -> bool:
        """Someone is spreading rumors about *us*; refute if they bite.

        Per SWIM, a ``SUSPECTED``/``FAILED`` rumor at incarnation ``i ≥``
        ours is overridden by jumping to ``i + 1`` and gossiping
        ``ALIVE`` there — the strictly-higher incarnation beats the rumor
        wherever the two meet.
        """
        if update.state is PeerState.ALIVE:
            return False
        if update.incarnation < self.incarnation:
            return False  # already refuted at a higher incarnation
        self.incarnation = update.incarnation + 1
        self.counters["refutations"] += 1
        self._enqueue(self._self_update())
        return True

    def _learn(self, update: LivenessUpdate, now: float) -> bool:
        """First rumor about an unknown peer: adopt it wholesale."""
        record = PeerRecord(
            update.state,
            incarnation=update.incarnation,
            heartbeat=update.heartbeat,
            last_refresh=now,
        )
        if update.state is PeerState.SUSPECTED:
            record.suspected_at = now
        self._records[update.peer] = record
        self._emit(update.peer, None, update.state, update.incarnation, now)
        self._enqueue(update)
        return True

    def _merge(self, update: LivenessUpdate, record: PeerRecord, now: float) -> bool:
        """SWIM precedence between an incoming rumor and the record."""
        if update.state is PeerState.FAILED:
            if record.state is PeerState.FAILED:
                return False
            if update.incarnation < record.incarnation:
                # Stale verdict: the record has already been refuted at a
                # higher incarnation.  Letting an old FAILED kill a fresh
                # ALIVE would deadlock — the refuter sees the rumor's low
                # incarnation as "already handled" and never re-refutes,
                # so the stale verdict would cascade unopposed.
                return False
            record.incarnation = update.incarnation
            self._transition(update.peer, record, PeerState.FAILED, now)
            return True
        if record.state is PeerState.FAILED:
            # Only a reborn peer (strictly higher incarnation announcing
            # ALIVE) escapes the grave — stale rumors cannot resurrect.
            if (
                update.state is PeerState.ALIVE
                and update.incarnation > record.incarnation
            ):
                record.incarnation = update.incarnation
                record.heartbeat = update.heartbeat
                record.last_refresh = now
                self.counters["resurrected"] += 1
                self._set_state(update.peer, record, PeerState.ALIVE, now)
                return True
            return False
        if update.state is PeerState.ALIVE:
            if update.incarnation > record.incarnation:
                # Refutation: strictly fresher incarnation always wins.
                record.incarnation = update.incarnation
                record.heartbeat = update.heartbeat
                record.last_refresh = now
                if record.state is PeerState.SUSPECTED:
                    self.counters["refuted_peers"] += 1
                    self._set_state(update.peer, record, PeerState.ALIVE, now)
                return True
            if (
                update.incarnation == record.incarnation
                and update.heartbeat > record.heartbeat
            ):
                # Heartbeat progress: liveness evidence, but *not* a
                # refutation — suspicion at this incarnation stands until
                # a higher incarnation clears it (SWIM's rule).  It does
                # extend the failure deadline, giving the refutation time
                # to propagate (a Lifeguard-style grace; a genuinely dead
                # peer produces no progress, so true failures are not
                # delayed).
                record.heartbeat = update.heartbeat
                record.last_refresh = now
                if record.state is PeerState.SUSPECTED:
                    record.suspected_at = now
                return True
            return False
        # update.state is SUSPECTED
        if record.state is PeerState.ALIVE:
            if update.incarnation >= record.incarnation:
                # Suspicion ties beat ALIVE at the same incarnation.
                record.incarnation = max(record.incarnation, update.incarnation)
                record.heartbeat = max(record.heartbeat, update.heartbeat)
                self._transition(update.peer, record, PeerState.SUSPECTED, now)
                return True
            return False
        # both SUSPECTED: only a fresher incarnation adds information
        if update.incarnation > record.incarnation:
            record.incarnation = update.incarnation
            record.heartbeat = max(record.heartbeat, update.heartbeat)
            return True
        return False

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _transition(
        self, peer: NodeId, record: PeerRecord, state: PeerState, now: float
    ) -> None:
        """Move ``record`` to ``state`` along the legal path.

        ``ALIVE → FAILED`` never happens in one hop: a ``FAILED`` verdict
        against an ``ALIVE`` record passes through ``SUSPECTED`` first
        (both transitions are emitted), so every consumer of the
        transition stream sees the full SWIM lifecycle.
        """
        if state is PeerState.FAILED and record.state is PeerState.ALIVE:
            self._set_state(peer, record, PeerState.SUSPECTED, now)
        self._set_state(peer, record, state, now)

    def _set_state(
        self, peer: NodeId, record: PeerRecord, state: PeerState, now: float
    ) -> None:
        old = record.state
        if old is state:
            return
        record.state = state
        if state is PeerState.SUSPECTED:
            record.suspected_at = now
            self.counters["suspected"] += 1
        elif state is PeerState.FAILED:
            self.counters["failed"] += 1
        self._emit(peer, old, state, record.incarnation, now)
        self._enqueue(
            LivenessUpdate(peer, state, record.incarnation, record.heartbeat)
        )

    def _emit(
        self,
        peer: NodeId,
        old: Optional[PeerState],
        new: PeerState,
        incarnation: int,
        now: float,
    ) -> None:
        if self.on_transition is not None:
            self.on_transition(peer, old, new, incarnation, now)

    # ------------------------------------------------------------------
    # Dissemination
    # ------------------------------------------------------------------

    def _enqueue(self, update: LivenessUpdate) -> None:
        """Queue ``update`` for piggybacking, superseding stale entries.

        One queue slot per peer: a fresher rumor replaces the queued one
        in place (keeping its position in the round-robin line) and
        resets its retransmission budget.  Selection is deterministic —
        the detector draws no randomness anywhere.
        """
        queued = self._queue.get(update.peer)
        if queued is not None:
            held = queued.update
            same_information = (
                held.state is update.state
                and held.incarnation == update.incarnation
                and held.heartbeat >= update.heartbeat
            )
            if same_information:
                return
            queued.update = update
            queued.sends_remaining = self.config.retransmit
            return
        self._queue[update.peer] = _Queued(update, self.config.retransmit, self._seq)
        self._seq += 1

    def piggyback(self) -> List[LivenessUpdate]:
        """Up to ``piggyback_limit`` updates for one outgoing message.

        Round-robin: oldest queue positions go first; an entry with
        transmission budget left is moved to the back of the line, so
        every queued rumor gets wire time even when the queue is larger
        than one message's allotment.
        """
        if not self._queue:
            return []
        order = sorted(self._queue.items(), key=lambda kv: kv[1].seq)
        picked: List[LivenessUpdate] = []
        for peer, queued in order[: self.config.piggyback_limit]:
            picked.append(queued.update)
            queued.sends_remaining -= 1
            if queued.sends_remaining <= 0:
                del self._queue[peer]
            else:
                queued.seq = self._seq
                self._seq += 1
        return picked

    def wire_extension(self) -> Optional[Dict[str, Any]]:
        """The ``Message.ext[FD_EXT_KEY]`` blob for one outgoing message.

        ``None`` when there is nothing to gossip, so idle detectors add
        zero bytes to the wire.
        """
        updates = self.piggyback()
        if not updates:
            return None
        return {"v": FD_WIRE_VERSION, "g": [u.encode() for u in updates]}

    def absorb_extension(self, blob: Any, now: float) -> int:
        """Merge a received extension blob; returns rumors that changed state.

        The blob comes off the network: whatever its shape, this never
        raises.  A blob that is not a current-version envelope with a list
        of entries, and each entry that does not decode, costs one
        ``ignored_extensions`` increment and touches no record — a
        half-understood liveness rumor is worse than none.
        """
        if blob is None:
            return 0
        entries = blob.get("g", []) if isinstance(blob, dict) else None
        if (
            not isinstance(entries, (list, tuple))
            or blob.get("v") != FD_WIRE_VERSION
        ):
            self.counters["ignored_extensions"] += 1
            return 0
        changed = 0
        for raw in entries:
            try:
                update = LivenessUpdate.decode(raw)
            except ValueError:
                self.counters["ignored_extensions"] += 1
                continue
            if self.absorb(update, now):
                changed += 1
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def state_of(self, peer: NodeId) -> Optional[PeerState]:
        """This detector's verdict on ``peer`` (None = never heard of)."""
        if peer == self.node_id:
            return PeerState.ALIVE
        record = self._records.get(peer)
        return None if record is None else record.state

    def record_of(self, peer: NodeId) -> Optional[PeerRecord]:
        return self._records.get(peer)

    def known_peers(self) -> List[NodeId]:
        return sorted(self._records)

    def peers_in(self, state: PeerState) -> List[NodeId]:
        return sorted(
            peer for peer, record in self._records.items() if record.state is state
        )

    def alive(self) -> List[NodeId]:
        return self.peers_in(PeerState.ALIVE)

    def suspected(self) -> List[NodeId]:
        return self.peers_in(PeerState.SUSPECTED)

    def failed(self) -> List[NodeId]:
        return self.peers_in(PeerState.FAILED)

    def summary(self) -> Dict[str, int]:
        """Counters plus current state census (for reports/metrics)."""
        census = {f"peers_{state.name.lower()}": 0 for state in PeerState}
        for record in self._records.values():
            census[f"peers_{record.state.name.lower()}"] += 1
        return {**self.counters, **census, "incarnation": self.incarnation}

    def __repr__(self) -> str:
        return (
            f"FailureDetector(node={self.node_id}, inc={self.incarnation}, "
            f"alive={len(self.alive())}, suspected={len(self.suspected())}, "
            f"failed={len(self.failed())})"
        )
