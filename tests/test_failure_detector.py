"""Property tests for the SWIM suspicion/incarnation state machine.

The guarantees documented in :mod:`repro.failure.detector`:

* refutation wins — an ``ALIVE`` at a strictly higher incarnation always
  clears ``SUSPECTED``, and nothing at the same or lower incarnation does;
* a peer only reaches ``FAILED`` through ``SUSPECTED`` (never in one hop
  from ``ALIVE``), even when the evidence arrives as a ``FAILED`` rumor;
* ``FAILED`` is sticky at its incarnation — only a strictly-higher
  ``ALIVE`` (a rebirth) resurrects;
* the detector is deterministic: same update sequence, same state;
* a received extension blob is hostile input: whatever its shape,
  ``absorb_extension`` never raises, counts each rejected blob or entry
  once, and touches no record it did not parse.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_net_wire import ext_message, json_leaves

from repro.failure import (
    FD_EXT_KEY,
    FD_WIRE_VERSION,
    DetectorConfig,
    FailureDetector,
    LivenessUpdate,
    PeerState,
)
from repro.net.wire import WireError, decode

PEERS = st.integers(min_value=1, max_value=6)

UPDATES = st.builds(
    LivenessUpdate,
    peer=PEERS,
    state=st.sampled_from(list(PeerState)),
    incarnation=st.integers(min_value=0, max_value=4),
    heartbeat=st.integers(min_value=0, max_value=40),
)


def make_detector(node_id=0, **config):
    log = []
    detector = FailureDetector(
        node_id,
        config=DetectorConfig(**config) if config else None,
        on_transition=lambda *args: log.append(args),
    )
    return detector, log


# ----------------------------------------------------------------------
# Arbitrary rumor sequences: the lifecycle invariants always hold
# ----------------------------------------------------------------------


@given(updates=st.lists(UPDATES, max_size=60))
@settings(max_examples=120, deadline=None)
def test_no_alive_to_failed_without_suspected(updates):
    detector, log = make_detector()
    for i, update in enumerate(updates):
        detector.absorb(update, now=float(i))
    for _peer, old, new, _inc, _now in log:
        assert not (old is PeerState.ALIVE and new is PeerState.FAILED)


@given(updates=st.lists(UPDATES, max_size=60))
@settings(max_examples=120, deadline=None)
def test_incarnations_never_decrease(updates):
    detector, _log = make_detector()
    high_water = {}
    for i, update in enumerate(updates):
        detector.absorb(update, now=float(i))
        for peer in detector.known_peers():
            record = detector.record_of(peer)
            assert record.incarnation >= high_water.get(peer, 0)
            high_water[peer] = record.incarnation


@given(updates=st.lists(UPDATES, max_size=60))
@settings(max_examples=80, deadline=None)
def test_deterministic_replay(updates):
    a, log_a = make_detector()
    b, log_b = make_detector()
    for i, update in enumerate(updates):
        a.absorb(update, now=float(i))
        b.absorb(update, now=float(i))
    assert log_a == log_b
    assert a.known_peers() == b.known_peers()
    for peer in a.known_peers():
        assert a.record_of(peer) == b.record_of(peer)
    assert a.piggyback() == b.piggyback()


@given(
    updates=st.lists(UPDATES, max_size=60),
    rebirth_incarnation=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_failed_sticky_under_stale_evidence(updates, rebirth_incarnation):
    """Once FAILED, only a strictly-higher-incarnation ALIVE resurrects."""
    detector, _log = make_detector()
    victim = 1
    detector.absorb(LivenessUpdate(victim, PeerState.FAILED, 2, 0), now=0.0)
    assert detector.state_of(victim) is PeerState.FAILED
    for i, update in enumerate(updates):
        if update.peer == victim and not (
            update.state is PeerState.ALIVE and update.incarnation > 2
        ):
            detector.absorb(update, now=float(i))
            assert detector.state_of(victim) is PeerState.FAILED
    changed = detector.absorb(
        LivenessUpdate(victim, PeerState.ALIVE, rebirth_incarnation, 0), now=99.0
    )
    if rebirth_incarnation > 2:
        assert changed and detector.state_of(victim) is PeerState.ALIVE
    else:
        assert not changed and detector.state_of(victim) is PeerState.FAILED


# ----------------------------------------------------------------------
# Refutation
# ----------------------------------------------------------------------


@given(
    suspicion_incarnation=st.integers(min_value=0, max_value=6),
    own_incarnation=st.integers(min_value=0, max_value=6),
    state=st.sampled_from([PeerState.SUSPECTED, PeerState.FAILED]),
)
@settings(max_examples=100, deadline=None)
def test_self_rumor_triggers_refutation_iff_it_bites(
    suspicion_incarnation, own_incarnation, state
):
    detector, _log = make_detector(node_id=0)
    detector.incarnation = own_incarnation
    changed = detector.absorb(
        LivenessUpdate(0, state, suspicion_incarnation, 0), now=1.0
    )
    if suspicion_incarnation >= own_incarnation:
        # Refutation: jump strictly above the rumor and gossip ALIVE there.
        assert changed
        assert detector.incarnation == suspicion_incarnation + 1
        queued = {u.peer: u for u in detector.piggyback()}
        assert queued[0].state is PeerState.ALIVE
        assert queued[0].incarnation == suspicion_incarnation + 1
    else:
        assert not changed
        assert detector.incarnation == own_incarnation


@given(
    record_incarnation=st.integers(min_value=0, max_value=5),
    alive_incarnation=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_refutation_wins_iff_strictly_higher_incarnation(
    record_incarnation, alive_incarnation
):
    """ALIVE clears SUSPECTED exactly when its incarnation is higher."""
    detector, _log = make_detector()
    detector.absorb(
        LivenessUpdate(1, PeerState.SUSPECTED, record_incarnation, 5), now=0.0
    )
    assert detector.state_of(1) is PeerState.SUSPECTED
    detector.absorb(
        LivenessUpdate(1, PeerState.ALIVE, alive_incarnation, 6), now=1.0
    )
    if alive_incarnation > record_incarnation:
        assert detector.state_of(1) is PeerState.ALIVE
        assert detector.counters["refuted_peers"] == 1
    else:
        assert detector.state_of(1) is PeerState.SUSPECTED


def test_stale_failed_cannot_kill_a_refuted_record():
    """A FAILED verdict below the record's incarnation is dead evidence.

    Regression for the refutation deadlock: the refuter ignores the old
    rumor (incarnation below its own), so if that rumor could still kill
    refreshed records it would cascade unopposed.
    """
    detector, _log = make_detector()
    detector.absorb(LivenessUpdate(1, PeerState.ALIVE, 3, 10), now=0.0)
    assert not detector.absorb(LivenessUpdate(1, PeerState.FAILED, 2, 0), now=1.0)
    assert detector.state_of(1) is PeerState.ALIVE


# ----------------------------------------------------------------------
# Timeout machine (beat-driven)
# ----------------------------------------------------------------------


def test_silence_walks_alive_through_suspected_to_failed():
    detector, log = make_detector(suspect_after=5.0, fail_after=3.0)
    detector.seed_peers([1], now=0.0)
    newly_failed = []
    for t in range(1, 12):
        newly_failed += detector.beat(float(t))
    assert detector.state_of(1) is PeerState.FAILED
    assert newly_failed == [1]
    path = [(old, new) for peer, old, new, _inc, _now in log if peer == 1]
    assert path == [
        (PeerState.ALIVE, PeerState.SUSPECTED),
        (PeerState.SUSPECTED, PeerState.FAILED),
    ]


def test_direct_traffic_resets_the_suspicion_clock():
    detector, _log = make_detector(suspect_after=5.0, fail_after=3.0)
    detector.seed_peers([1], now=0.0)
    for t in range(1, 30):
        detector.observe_direct(1, float(t))
        detector.beat(float(t))
    assert detector.state_of(1) is PeerState.ALIVE
    assert detector.counters["suspected"] == 0


def test_heartbeat_progress_extends_failure_deadline_but_not_suspicion():
    """Same-incarnation progress is a grace period, not a refutation."""
    detector, _log = make_detector(suspect_after=2.0, fail_after=4.0)
    detector.absorb(LivenessUpdate(1, PeerState.SUSPECTED, 1, 5), now=0.0)
    detector.absorb(LivenessUpdate(1, PeerState.ALIVE, 1, 6), now=2.0)
    assert detector.state_of(1) is PeerState.SUSPECTED
    record = detector.record_of(1)
    assert record.suspected_at == 2.0 and record.heartbeat == 6


# ----------------------------------------------------------------------
# Dissemination: piggyback queue and wire envelope
# ----------------------------------------------------------------------


def test_piggyback_round_robin_covers_queue_beyond_one_message():
    detector, _log = make_detector(piggyback_limit=2, retransmit=4)
    for peer in range(1, 7):
        detector.absorb(LivenessUpdate(peer, PeerState.ALIVE, 0, 1), now=0.0)
    seen = []
    for _ in range(3):
        seen.extend(update.peer for update in detector.piggyback())
    # Three 2-entry messages cover all six queued peers before any repeat.
    assert sorted(seen) == list(range(1, 7))


def test_piggyback_budget_exhausts_and_queue_drains():
    detector, _log = make_detector(retransmit=2)
    detector.absorb(LivenessUpdate(1, PeerState.ALIVE, 0, 1), now=0.0)
    rides = 0
    for _ in range(10):
        rides += sum(1 for update in detector.piggyback() if update.peer == 1)
    assert rides == 2  # exactly the retransmit budget
    assert detector.piggyback() == []


def test_fresher_rumor_supersedes_in_place_and_resets_budget():
    detector, _log = make_detector(retransmit=2)
    detector.absorb(LivenessUpdate(1, PeerState.ALIVE, 0, 1), now=0.0)
    detector.piggyback()  # one ride spent
    detector.absorb(LivenessUpdate(1, PeerState.ALIVE, 0, 9), now=1.0)
    picked = [u for u in detector.piggyback() if u.peer == 1]
    assert picked and picked[0].heartbeat == 9
    assert sum(1 for u in detector.piggyback() if u.peer == 1) == 1


@given(update=UPDATES)
@settings(max_examples=60, deadline=None)
def test_wire_roundtrip(update):
    assert LivenessUpdate.decode(update.encode()) == update


def test_wire_extension_envelope_and_version_gate():
    sender, _log = make_detector(node_id=1)
    sender.beat(1.0)
    blob = sender.wire_extension()
    assert blob["v"] == FD_WIRE_VERSION

    receiver, _log2 = make_detector(node_id=2)
    assert receiver.absorb_extension(blob, now=0.0) == 1
    assert receiver.state_of(1) is PeerState.ALIVE

    stale = dict(blob, v=FD_WIRE_VERSION + 1)
    before = dict(receiver.counters)
    assert receiver.absorb_extension(stale, now=0.0) == 0
    assert receiver.counters["ignored_extensions"] == before["ignored_extensions"] + 1


def test_malformed_entries_skipped_and_counted():
    detector, _log = make_detector()
    blob = {"v": FD_WIRE_VERSION, "g": [[1, 99, 0, 0], "junk", [2, 0, 1, 3]]}
    assert detector.absorb_extension(blob, now=0.0) == 1  # only the valid one
    assert detector.counters["ignored_extensions"] == 2
    assert detector.state_of(2) is PeerState.ALIVE
    assert detector.state_of(1) is None


@pytest.mark.parametrize(
    "blob",
    [
        [1, 2],
        "fd",
        7,
        {},
        {"v": FD_WIRE_VERSION, "g": 5},
        {"v": FD_WIRE_VERSION, "g": "1234"},
        {"v": FD_WIRE_VERSION, "g": {"0": [1, 0, 0, 0]}},
        {"v": FD_WIRE_VERSION, "g": [[1, 1, 0, float("inf")]]},
        {"v": FD_WIRE_VERSION, "g": [[1, 1, 0, float("nan")]]},
        {"v": FD_WIRE_VERSION, "g": [[1, 0, 0.5, 3]]},
        {"v": FD_WIRE_VERSION, "g": [[1, 0, 0, 3.0]]},
        {"v": FD_WIRE_VERSION, "g": [[True, 0, 0, 3]]},
        {"v": FD_WIRE_VERSION, "g": [["1", "0", "0", "3"]]},
        {"v": FD_WIRE_VERSION, "g": ["1003"]},
        {"v": FD_WIRE_VERSION, "g": [[1, 0, 0]]},
        {"v": FD_WIRE_VERSION, "g": [[1, 0, 0, 3, 4]]},
        {"v": FD_WIRE_VERSION, "g": [[1, 3, 0, 0]]},
        {"v": FD_WIRE_VERSION, "g": [None]},
    ],
    ids=repr,
)
def test_each_malformed_shape_costs_one_increment_and_nothing_else(blob):
    detector, log = make_detector()
    assert detector.absorb_extension(blob, now=0.0) == 0
    assert detector.counters["ignored_extensions"] == 1
    assert detector.known_peers() == [] and log == []


#: Any JSON-decodable value — the wire fuzz's leaves plus the non-finite
#: floats ``json.loads`` accepts (``Infinity``, ``NaN``), nested.
JSON_VALUES = st.recursive(
    st.one_of(json_leaves, st.sampled_from([float("inf"), float("-inf"), float("nan")])),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=10,
)
#: Mostly-plausible envelopes, so the fuzz spends its budget past the
#: version gate: good entries interleaved with arbitrary JSON.
FD_BLOBS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {
            "v": st.just(FD_WIRE_VERSION),
            "g": st.one_of(
                JSON_VALUES,
                st.lists(
                    st.one_of(JSON_VALUES, UPDATES.map(LivenessUpdate.encode)),
                    max_size=6,
                ),
            ),
        }
    ),
)


def _well_formed(entry):
    """Independent oracle for what :meth:`LivenessUpdate.encode` emits."""
    return (
        isinstance(entry, list)
        and len(entry) == 4
        and all(type(field) is int for field in entry)
        and entry[1] in (0, 1, 2)
    )


@given(blob=FD_BLOBS, known=st.lists(UPDATES, max_size=6))
@settings(max_examples=300, deadline=None)
def test_hostile_extension_never_raises_nor_touches_what_it_cannot_parse(blob, known):
    detector, _log = make_detector()
    for update in known:
        detector.absorb(update, now=0.0)
    # Through the wire wherever the envelope check admits the blob; the
    # rest goes in raw: absorb_extension must fail closed on any object.
    datagram = ext_message(json.dumps({FD_EXT_KEY: blob}).encode("utf-8"))
    try:
        received = decode(datagram).ext[FD_EXT_KEY]
    except WireError:
        assert not isinstance(blob, dict)
        received = blob

    before = copy.deepcopy(detector._records)
    ignored = detector.counters["ignored_extensions"]
    changed = detector.absorb_extension(received, now=1.0)

    entries = blob.get("g", []) if isinstance(blob, dict) else None
    if blob is None:
        parsed, rejected = [], 0
    elif not isinstance(entries, list) or blob.get("v") != FD_WIRE_VERSION:
        parsed, rejected = [], 1
    else:
        parsed = [entry for entry in entries if _well_formed(entry)]
        rejected = len(entries) - len(parsed)
    assert detector.counters["ignored_extensions"] - ignored == rejected
    assert 0 <= changed <= len(parsed)
    touched = {
        peer
        for peer, record in detector._records.items()
        if before.get(peer) != record
    }
    assert touched <= {entry[0] for entry in parsed}


def test_idle_detector_adds_no_wire_bytes():
    detector, _log = make_detector()
    assert detector.wire_extension() is None


def test_config_validation():
    for bad in (
        dict(suspect_after=0.0),
        dict(fail_after=-1.0),
        dict(suspect_after=float("nan")),
        dict(suspect_after=float("inf")),
        dict(fail_after=float("nan")),
        dict(fail_after=float("inf")),
        dict(piggyback_limit=0),
        dict(retransmit=0),
    ):
        with pytest.raises(ValueError):
            DetectorConfig(**bad)
