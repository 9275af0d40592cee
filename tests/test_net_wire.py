"""Tests for repro.net.wire (versioned datagram codec).

The codec is the compatibility boundary between protocol code and any
process/network boundary a record crosses.  Three Hypothesis properties
are the contract: decode(encode(x)) == x for every encodable record,
encode(*decode_with_timestamp(b)) == b for every accepted ext-free
datagram (one spelling per record), and decode of anything else is a
WireError.  The datagrams below are assembled by hand with
``int.to_bytes`` — never with the codec or ``struct`` — so the layout is
pinned by a second, independent spelling of it.
"""

import json
import math
import pickle
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.wire import (
    MAX_DATAGRAM,
    WIRE_SCHEMA_VERSION,
    JoinRequest,
    Welcome,
    WireError,
    decode,
    decode_with_timestamp,
    encode,
)
from repro.protocols.base import Message, SendEffect

# ----------------------------------------------------------------------
# The layout, spelled a second time
# ----------------------------------------------------------------------

MSG, JOIN, WELCOME = 1, 2, 3


def u8(value):
    return int(value).to_bytes(1, "big")


def u16(value):
    return int(value).to_bytes(2, "big")


def i64(value):
    return int(value).to_bytes(8, "big", signed=True)


def f64(value):
    return np.array(value, dtype=">f8").tobytes()


def header(tag, ts=None, ext=False, version=WIRE_SCHEMA_VERSION, flags=None):
    if flags is None:
        flags = (ts is not None) | (bool(ext) << 1)
    return bytes([version, tag, flags]) + (b"" if ts is None else f64(ts))


def message_body(sender, target, pairs, kind=b"sandf", pair_count=None, kind_length=None):
    """``pairs`` as (id, flag byte); the two counts may lie."""
    return (
        i64(sender) + i64(target)
        + u8(len(kind) if kind_length is None else kind_length)
        + u16(len(pairs) if pair_count is None else pair_count)
        + b"".join(i64(node_id) + u8(flag) for node_id, flag in pairs)
        + kind
    )


def ext_message(tail):
    """A well-formed message datagram whose ext tail is ``tail``."""
    return header(MSG, ext=True) + message_body(1, 0, [(1, 0), (2, 1)]) + tail


def welcome_body(node, bootstrap, entries, bootstrap_count=None, entry_count=None):
    return (
        i64(node)
        + u16(len(bootstrap) if bootstrap_count is None else bootstrap_count)
        + u16(len(entries) if entry_count is None else entry_count)
        + b"".join(map(i64, bootstrap))
        + b"".join(i64(peer) + u16(port) for peer, port in entries)
    )


node_ids = st.integers(min_value=0, max_value=2**31 - 1)
kinds = st.sampled_from(
    ["sandf", "push", "pushpull-request", "pushpull-reply",
     "shuffle-request", "shuffle-reply"]
)
payloads = st.lists(st.tuples(node_ids, st.booleans()), max_size=8)

messages = st.builds(
    Message, sender=node_ids, target=node_ids, payload=payloads, kind=kinds
)
records = st.one_of(
    messages,
    st.builds(JoinRequest, node=node_ids, port=st.integers(1, 65535)),
    st.builds(
        Welcome,
        node=node_ids,
        bootstrap=st.lists(node_ids, max_size=16),
        address_book=st.dictionaries(node_ids, st.integers(1, 65535), max_size=16),
    ),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(record=records)
    def test_every_record_round_trips(self, record):
        assert decode(encode(record)) == record

    @settings(max_examples=50, deadline=None)
    @given(record=records, ts=st.floats(0, 1e9, allow_nan=False))
    def test_timestamp_rides_the_envelope(self, record, ts):
        decoded, got_ts = decode_with_timestamp(encode(record, timestamp=ts))
        assert decoded == record
        assert got_ts == pytest.approx(ts)

    def test_timestamp_absent_by_default(self):
        message = Message(sender=1, target=2, payload=[(3, True)], kind="sandf")
        _, ts = decode_with_timestamp(encode(message))
        assert ts is None

    @settings(max_examples=50, deadline=None)
    @given(record=records)
    def test_records_pickle(self, record):
        assert pickle.loads(pickle.dumps(record)) == record


class TestEnvelope:
    def test_version_is_stamped(self):
        for record in (
            JoinRequest(node=5, port=1),
            Welcome(node=5),
            Message(sender=1, target=2, payload=[], kind="sandf"),
        ):
            assert encode(record)[0] == WIRE_SCHEMA_VERSION == 2
            assert encode(record, timestamp=1.0)[0] == WIRE_SCHEMA_VERSION

    def test_wrong_version_rejected(self):
        valid = encode(JoinRequest(node=5, port=1))
        for version in (0, 1, WIRE_SCHEMA_VERSION + 1, 0x7B, 255):
            with pytest.raises(WireError, match="version mismatch"):
                decode(bytes([version]) + valid[1:])

    def test_unknown_tag_rejected(self):
        for tag in (0, 4, 255):
            with pytest.raises(WireError, match="unknown wire tag"):
                decode(header(tag) + i64(1))

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode(b"\xff\x00 not a datagram")
        with pytest.raises(WireError, match="version mismatch"):
            decode(b"[1,2,3]")
        with pytest.raises(WireError):
            decode(b"")

    def test_malformed_body_rejected(self):
        # A message header and a sender, then nothing.
        with pytest.raises(WireError, match="malformed"):
            decode(header(MSG) + i64(1))

    def test_unencodable_type_rejected(self):
        with pytest.raises(WireError, match="cannot encode"):
            encode(object())

    def test_oversized_record_rejected(self):
        huge = Welcome(
            node=0,
            bootstrap=[],
            address_book={i: 65535 for i in range(10_000)},
        )
        with pytest.raises(WireError, match=str(MAX_DATAGRAM)):
            encode(huge)

    @pytest.mark.parametrize(
        "record, timestamp",
        [
            (Message(sender=2**63, target=0, payload=[]), None),
            (Message(sender=0, target=-(2**63) - 1, payload=[]), None),
            (Message(sender=0, target=0, payload=[(2**64, False)]), None),
            (Message(sender=0, target=0, payload=[(1.5, False)]), None),
            (Message(sender=0, target=0, payload=[], kind="k" * 256), None),
            (Message(sender=0, target=0, payload=[], kind="\u00e9" * 128), None),
            (Message(sender=0, target=0, payload=[], kind="\ud800"), None),
            (Message(sender=0, target=0, payload=[(1, False)] * 65536), None),
            (Message(sender=0, target=0, payload=[], ext={"fd": {"g": {1, 2}}}), None),
            (Message(sender=0, target=0, payload=[]), 10**400),
            (Message(sender=0, target=0, payload=[]), "now"),
            (JoinRequest(node=1, port=65536), None),
            (JoinRequest(node=1, port=-1), None),
            (JoinRequest(node=2**63, port=1), None),
            (Welcome(node=1, bootstrap=[2**63]), None),
            (Welcome(node=1, address_book={2: 70000}), None),
            (Welcome(node=1, bootstrap=list(range(65536))), None),
        ],
    )
    def test_a_record_no_datagram_holds_is_a_wire_error(self, record, timestamp):
        """Never ``struct.error`` / ``OverflowError``: callers catch one type."""
        with pytest.raises(WireError, match="cannot encode|bytes >"):
            encode(record, timestamp)


class TestSlots:
    """The satellite contract: slotted on 3.10+, always picklable."""

    def test_message_has_no_dict_on_slotted_builds(self):
        import sys

        message = Message(sender=1, target=2, payload=[], kind="sandf")
        if sys.version_info >= (3, 10):
            assert not hasattr(message, "__dict__")
        assert pickle.loads(pickle.dumps(message)) == message

    def test_event_effect_types_picklable(self):
        effect = SendEffect(
            Message(sender=1, target=2, payload=[(9, True)], kind="x"), reply=True
        )
        assert pickle.loads(pickle.dumps(effect)) == effect


class TestExtensionEnvelope:
    """The additive ext tail carrying e.g. liveness gossip."""

    def test_ext_round_trips(self):
        message = Message(
            sender=1, target=2, payload=[(3, True)], kind="sandf",
            ext={"fd": {"v": 1, "g": [[4, 0, 0, 7]]}},
        )
        decoded = decode(encode(message))
        assert decoded.ext == message.ext
        assert decoded == message

    def test_absent_ext_produces_pre_extension_bytes(self):
        bare = Message(sender=1, target=2, payload=[(3, False)], kind="sandf")
        raw = encode(bare)
        # Strictly additive: no flag, no tail, and so no JSON at all.
        assert raw == header(MSG) + message_body(1, 2, [(3, 0)])
        assert decode(raw).ext is None
        extended = encode(
            Message(sender=1, target=2, payload=[(3, False)], kind="sandf",
                    ext={"fd": {"v": 1}})
        )
        assert extended == header(MSG, ext=True) + raw[3:] + b'{"fd":{"v":1}}'

    def test_extension_free_peer_ignores_unknown_extensions(self):
        # A decoder must deliver the message even if it does not know the
        # extension key; interpretation is the consumer's job.
        message = Message(
            sender=1, target=2, payload=[], kind="sandf",
            ext={"future-ext": {"v": 99}},
        )
        decoded = decode(encode(message))
        assert decoded.payload == []
        assert decoded.ext == {"future-ext": {"v": 99}}

    def test_malformed_extension_envelope_rejected(self):
        assert decode(ext_message(b'{"fd":{}}')).ext == {"fd": {}}
        for tail in (b'["not","a","dict"]', b'{"fd":[1]}', b'{"fd":{}} ,', b"5", b""):
            with pytest.raises(WireError):
                decode(ext_message(tail))

    @given(record=messages, blob=st.dictionaries(
        st.text(min_size=1, max_size=6),
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.one_of(st.integers(), st.lists(st.integers(), max_size=4)),
            max_size=4,
        ),
        max_size=3,
    ))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_ext_blobs_round_trip(self, record, blob):
        message = Message(
            sender=record.sender, target=record.target,
            payload=record.payload, kind=record.kind,
            ext=blob or None,
        )
        assert decode(encode(message)) == message


# ----------------------------------------------------------------------
# The encoder against its oracle, and the bytes on file
# ----------------------------------------------------------------------


def reference_encode(message, timestamp):
    """The oracle: the layout of ``docs/runtime.md`` written out with
    ``int.to_bytes``.  ``OverflowError`` where a field does not fit."""
    tail = b""
    if message.ext:
        ext = {str(key): dict(value) for key, value in message.ext.items()}
        tail = json.dumps(ext, separators=(",", ":")).encode("utf-8")
    pairs = [(node_id, 1 if dep else 0) for node_id, dep in message.payload]
    body = message_body(
        message.sender, message.target, pairs, message.kind.encode("utf-8")
    )
    return header(MSG, ts=timestamp, ext=bool(tail)) + body + tail


any_ids = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.integers(2**64, 2**80),  # Python ints do not stop at 64 bits
)
json_leaves = st.one_of(
    st.integers(), st.text(max_size=6), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)
ext_blobs = st.dictionaries(
    st.text(max_size=6),
    st.dictionaries(
        st.text(max_size=4), st.one_of(json_leaves, st.lists(json_leaves, max_size=4)),
        max_size=4,
    ),
    max_size=3,
)
any_messages = st.builds(
    Message,
    sender=any_ids,
    target=any_ids,
    payload=st.lists(
        st.tuples(any_ids, st.one_of(st.booleans(), st.integers(0, 2))), max_size=4
    ),
    kind=st.text(max_size=24),  # quotes, backslashes, control and non-ASCII included
    ext=st.one_of(st.none(), ext_blobs),
)
timestamps = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
    st.floats(min_value=0.0, max_value=1e-300),  # tiny and subnormal
    st.floats(min_value=1e16, max_value=1e308),
    st.integers(-(2**70), 2**70),  # not a float, but a double holds it
    st.integers(10**309, 10**320),  # no double holds it
)

GOLDEN_PATH = Path(__file__).parent / "data" / "wire_v2_golden.json"


def golden_record(spec):
    fields = dict(spec)
    record_type = fields.pop("type")
    if record_type == "message":
        fields["payload"] = [(node_id, dep) for node_id, dep in fields["payload"]]
        return Message(**fields)
    if record_type == "join":
        return JoinRequest(**fields)
    fields["address_book"] = {int(k): v for k, v in fields["address_book"].items()}
    return Welcome(**fields)


GOLDEN = json.loads(GOLDEN_PATH.read_text())


class TestDirectFormatter:
    @settings(max_examples=300, deadline=None)
    @given(message=any_messages, timestamp=timestamps)
    def test_message_records_match_the_independent_oracle_byte_for_byte(
        self, message, timestamp
    ):
        try:
            expected = reference_encode(message, timestamp)
        except OverflowError:  # an id beyond 64 bits, a ts beyond a double
            with pytest.raises(WireError, match="cannot encode"):
                encode(message, timestamp)
            return
        assert encode(message, timestamp) == expected
        decoded, got = decode_with_timestamp(expected)
        assert decoded == Message(
            sender=int(message.sender),
            target=int(message.target),
            payload=[(int(node_id), bool(dep)) for node_id, dep in message.payload],
            kind=message.kind,
            ext=message.ext or None,
        )
        assert got == (None if timestamp is None else float(timestamp))

    def test_the_benchmarked_datagram_is_53_bytes(self):
        message = Message(
            sender=3, target=5, payload=[(3, False), (11, True)], kind="sandf"
        )
        assert encode(message, timestamp=1.0) == (
            b"\x02\x01\x01" + b"\x3f\xf0" + bytes(6)
            + bytes(7) + b"\x03" + bytes(7) + b"\x05" + b"\x05" + b"\x00\x02"
            + bytes(7) + b"\x03" + b"\x00" + bytes(7) + b"\x0b" + b"\x01"
            + b"sandf"
        )
        assert len(encode(message, timestamp=1.0)) == 53

    @settings(max_examples=100, deadline=None)
    @given(message=messages, timestamp=st.one_of(st.none(), st.just(1.0)))
    def test_message_size_formula(self, message, timestamp):
        """header + 9 per pair + the kind: what a piggyback budget adds to."""
        header_size = 22 if timestamp is None else 30
        assert len(encode(message, timestamp)) == (
            header_size + 9 * len(message.payload) + len(message.kind.encode())
        )

    def test_golden_file_covers_every_record_with_and_without_ts(self):
        covered = {(case["record"]["type"], case["ts"] is None) for case in GOLDEN}
        assert covered == {
            (kind, bare) for kind in ("message", "join", "welcome") for bare in (True, False)
        }
        assert any(case["record"].get("ext") for case in GOLDEN)

    @pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
    def test_golden_bytes(self, case):
        """A layout change without a WIRE_SCHEMA_VERSION bump fails here."""
        record, data = golden_record(case["record"]), bytes.fromhex(case["hex"])
        assert case["version"] == WIRE_SCHEMA_VERSION
        assert encode(record, case["ts"]) == data
        assert decode_with_timestamp(data) == (record, case["ts"])


# ----------------------------------------------------------------------
# Decode fails closed, and accepts one spelling per record
# ----------------------------------------------------------------------

RECORD_TYPES = (Message, JoinRequest, Welcome)


def decode_or_wire_error(data):
    """The decode contract: a record, or WireError — any other exception
    propagates and fails the calling test."""
    try:
        record, timestamp = decode_with_timestamp(data)
    except WireError:
        return None
    assert isinstance(record, RECORD_TYPES)
    assert timestamp is None or (type(timestamp) is float and math.isfinite(timestamp))
    return record


def nested(depth, opener, closer, core=b""):
    return opener * depth + core + closer * depth


VALID_MESSAGE_BODY = message_body(1, 0, [(1, 0), (2, 1)])
VALID_JOIN_BODY = i64(5) + u16(9)
VALID_WELCOME_BODY = welcome_body(1, [2, 3], [(2, 9), (3, 10)])

#: v2 headers that lie: counts, lengths, flags, ports and tails.  Every
#: entry fits one UDP datagram, so the transport and cluster suites send
#: the same table over real sockets.
HOSTILE = {
    "empty datagram": b"",
    "version byte alone": header(MSG)[:1],
    "two bytes": header(MSG)[:2],
    "header alone": header(MSG),
    "ts flag on a datagram too short for it": header(MSG, ts=1.0)[:7],
    "version 3": header(MSG, version=3) + VALID_MESSAGE_BODY,
    "tag zero": header(0) + VALID_MESSAGE_BODY,
    # As close as v2 comes to the three records no runtime sent.
    "unknown tag with a ts": header(4, ts=-1e300) + i64(1),
    "unknown flag bit": header(MSG, flags=4) + VALID_MESSAGE_BODY,
    "every flag bit": header(MSG, flags=255) + f64(1.0) + VALID_MESSAGE_BODY + b"{}",
    "ext flag on a join": header(JOIN, ext=True) + VALID_JOIN_BODY + b'{"fd":{}}',
    "ext flag on a welcome": header(WELCOME, ext=True) + VALID_WELCOME_BODY + b"{}",
    "NaN timestamp": header(JOIN, ts=math.nan) + VALID_JOIN_BODY,
    "infinite timestamp": header(JOIN, ts=math.inf) + VALID_JOIN_BODY,
    "negative infinite timestamp": header(MSG, ts=-math.inf) + VALID_MESSAGE_BODY,
    "message one byte short": (header(MSG) + VALID_MESSAGE_BODY)[:-1],
    "message one byte long": header(MSG) + VALID_MESSAGE_BODY + b"\x00",
    "join one byte short": (header(JOIN) + VALID_JOIN_BODY)[:-1],
    "join one byte long": header(JOIN, ts=1.0) + VALID_JOIN_BODY + b"\x00",
    "welcome one byte short": (header(WELCOME) + VALID_WELCOME_BODY)[:-1],
    "welcome one byte long": header(WELCOME) + VALID_WELCOME_BODY + b"\x00",
    "pair count of 65535 on an empty body": (
        header(MSG) + message_body(1, 0, [], pair_count=65535)
    ),
    "pair count one more than carried": (
        header(MSG) + message_body(1, 0, [(1, 0), (2, 1)], pair_count=3)
    ),
    "pair count one fewer than carried": (
        header(MSG) + message_body(1, 0, [(1, 0), (2, 1)], pair_count=1)
    ),
    "kind length beyond the datagram": (
        header(MSG) + message_body(1, 0, [(1, 0)], kind_length=255)
    ),
    "kind length short of the kind": (
        header(MSG) + message_body(1, 0, [(1, 0)], kind_length=4)
    ),
    "dependence flag 2": header(MSG) + message_body(1, 0, [(1, 0), (2, 2)]),
    "dependence flag 255": header(MSG, ts=1.0) + message_body(1, 0, [(1, 255), (2, 0)]),
    "kind that is not UTF-8": header(MSG) + message_body(1, 0, [], kind=b"\xff\xfe"),
    "kind that is an overlong encoding": (
        header(MSG) + message_body(1, 0, [], kind=b"\xc0\xaf")
    ),
    # A port nobody can sendto(): it must die in the decoder, not in the
    # address book of whoever believed it.
    "join port zero": header(JOIN) + i64(5) + u16(0),
    "address-book port zero": header(WELCOME) + welcome_body(1, [2], [(2, 0)]),
    "address book names an id twice": (
        header(WELCOME) + welcome_body(1, [2], [(2, 9), (2, 9)])
    ),
    "welcome counts of 65535 on an empty body": (
        header(WELCOME) + welcome_body(1, [], [], bootstrap_count=65535, entry_count=65535)
    ),
    "bootstrap count one more than carried": (
        header(WELCOME) + welcome_body(1, [2, 3], [(2, 9)], bootstrap_count=3)
    ),
    "entry count one fewer than carried": (
        header(WELCOME) + welcome_body(1, [2], [(2, 9), (3, 9)], entry_count=1)
    ),
    "ext flag and no tail": ext_message(b""),
    "ext tail that is a list": ext_message(b'[{"fd":{}}]'),
    "ext tail whose value is not an object": ext_message(b'{"fd":5}'),
    "ext tail that is not JSON": ext_message(b"\x00\x01\x02"),
    "ext tail that is not UTF-8": ext_message(b'{"fd":{"k":"\xff"}}'),
    "ext tail with trailing bytes": ext_message(b'{"fd":{}}\x00'),
    "ext tail nested beyond the recursion limit": ext_message(b"[" * 60_000),
    "ext object nested beyond the recursion limit": ext_message(
        b'{"fd":' + nested(10_000, b'{"a":', b"}", b"1") + b"}"
    ),
    "ext integer literal beyond the digit limit": ext_message(
        b'{"fd":{"v":' + b"7" * 5000 + b"}}"
    ),
}

#: What schema 1 — JSON text — put on the wire: its honest records, the one
#: its decoder coerced, and its whole hostile table (trimmed to fit a UDP
#: datagram).  Not one is parsed any more: each is a version mismatch.
V1_DATAGRAMS = {
    "v1 message": b'{"t":"msg","m":{"s":3,"d":5,"k":"sandf","p":[[3,0],[11,1]]},"v":1,"ts":1.0}',
    "v1 message with ext": (
        b'{"t":"msg","m":{"s":1,"d":0,"k":"push","p":[],"x":{"fd":{"v":1,"g":5}}},"v":1}'
    ),
    "v1 join": b'{"t":"join","n":5,"port":9,"v":1}',
    "v1 welcome": b'{"t":"wlcm","n":1,"b":[2],"a":{"2":9},"v":1}',
    "v1 message the v1 decoder coerced": (
        b'{"t":"msg","m":{"s":"1","d":1.9,"k":[1],"p":[[2.7,"x"],[true,0]]},"v":1}'
    ),
    "v1 claiming version 2": b'{"v":2,"t":"join","n":1,"port":1}',
    "v1 overflowing message field": b'{"v":1,"t":"msg","m":{"s":1e999,"d":2,"k":"k","p":[]}}',
    "v1 overflowing payload id": b'{"v":1,"t":"msg","m":{"s":1,"d":2,"k":"k","p":[[1e999,0]]}}',
    "v1 overflowing join field": b'{"v":1,"t":"join","n":1e999,"port":1}',
    "v1 brackets beyond the recursion limit": b"[" * 60_000,
    "v1 object beyond the recursion limit under m": (
        b'{"v":1,"t":"msg","m":' + nested(10_000, b'{"a":', b"}", b"1") + b"}"
    ),
    "v1 integer literal beyond the digit limit": (
        b'{"v":1,"t":"join","port":1,"n":' + b"7" * 5000 + b"}"
    ),
    "v1 address book that is a list": b'{"v":1,"t":"wlcm","n":1,"b":[1],"a":[1,2]}',
    "v1 NaN timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":NaN}',
    "v1 infinite timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":Infinity}',
    "v1 negative infinite timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":-Infinity}',
    "v1 timestamp too large for a float": (
        b'{"v":1,"t":"join","n":1,"port":1,"ts":1' + b"0" * 400 + b"}"
    ),
    "v1 boolean timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":true}',
    "v1 retired init tag": b'{"t":"init","n":1,"v":1,"ts":-1e+300}',
    "v1 retired dlvr tag": b'{"t":"dlvr","m":{"s":3,"d":5,"k":"k","p":[[3,0]]},"v":1}',
    "v1 retired send tag": b'{"t":"send","m":{"s":3,"d":5,"k":"k","p":[[3,0]]},"r":1,"v":1}',
    "v1 join port beyond 65535": b'{"t":"join","n":5,"port":99999,"v":1}',
    "v1 join port zero": b'{"t":"join","n":5,"port":0,"v":1}',
    "v1 boolean join port": b'{"t":"join","n":5,"port":true,"v":1}',
    "v1 fractional join port": b'{"t":"join","n":5,"port":1.5,"v":1}',
    "v1 address-book port beyond 65535": b'{"t":"wlcm","n":1,"b":[2],"a":{"2":99999},"v":1}',
    "v1 boolean version": b'{"v":true,"t":"join","n":1,"port":1}',
    "v1 float version": b'{"v":1.0,"t":"join","n":1,"port":1}',
}

#: Honest prefixes for the canonical-form search to extend.
VALID_PREFIXES = [
    header(tag, ts=ts) + body[:cut]
    for tag, body in (
        (MSG, VALID_MESSAGE_BODY),
        (MSG, message_body(7, 8, [], kind=b"")),
        (JOIN, VALID_JOIN_BODY),
        (WELCOME, VALID_WELCOME_BODY),
        (WELCOME, welcome_body(1, [], [])),
    )
    for ts in (None, 2.5)
    for cut in sorted({*range(0, len(body), 3), len(body)})
]


class TestDecodeFailsClosed:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_datagram_is_a_wire_error(self, name):
        assert len(HOSTILE[name]) <= MAX_DATAGRAM
        with pytest.raises(WireError):
            decode_with_timestamp(HOSTILE[name])

    @pytest.mark.parametrize("name", sorted(V1_DATAGRAMS))
    def test_v1_datagram_is_a_version_mismatch(self, name):
        data = V1_DATAGRAMS[name]
        assert len(data) <= MAX_DATAGRAM
        with pytest.raises(WireError, match=f"version mismatch: got {data[0]}, speak 2"):
            decode_with_timestamp(data)

    def test_the_hand_built_bodies_are_honest(self):
        """The hostile table's near misses differ from these in one field."""
        assert decode(header(MSG) + VALID_MESSAGE_BODY) == Message(
            sender=1, target=0, payload=[(1, False), (2, True)], kind="sandf"
        )
        assert decode(header(JOIN) + VALID_JOIN_BODY) == JoinRequest(node=5, port=9)
        assert decode(header(WELCOME) + VALID_WELCOME_BODY) == Welcome(
            node=1, bootstrap=[2, 3], address_book={2: 9, 3: 10}
        )

    def test_nesting_around_the_recursion_limit(self):
        """Whatever depth the ext parser survives, building the error (or
        the record) from the result must survive too."""
        limit = sys.getrecursionlimit()
        for depth in range(max(1, limit - 400), limit + 100, 13):
            for deep in (
                nested(depth, b"[", b"]"),
                nested(depth, b'{"a":', b"}", b"1"),
            ):
                decode_or_wire_error(ext_message(deep))
                decode_or_wire_error(ext_message(b'{"e":%s}' % deep))
                decode_or_wire_error(ext_message(b'{"e":{"f":%s}}' % deep))

    def test_hostile_counts_cost_no_memory(self):
        """A u16 count is checked against the datagram's length before
        anything is sized by it: 10^4 lying headers, under 1 MB at peak."""
        rng = random.Random(20260808)
        datagrams = []
        for _ in range(10_000):
            ts = rng.choice([None, 1.0])
            if rng.random() < 0.5:
                body = message_body(
                    1, 0, [], kind=rng.randbytes(rng.randrange(40)),
                    pair_count=rng.randrange(1, 65536), kind_length=rng.randrange(256),
                )
                datagrams.append(header(MSG, ts=ts, ext=rng.random() < 0.2) + body)
            else:
                body = welcome_body(
                    1, [], [], bootstrap_count=rng.randrange(1, 65536),
                    entry_count=rng.randrange(1, 65536),
                )
                datagrams.append(header(WELCOME, ts=ts) + body + rng.randbytes(40))
        tracemalloc.start()
        try:
            for datagram in datagrams:
                with pytest.raises(WireError):
                    decode_with_timestamp(datagram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_arbitrary_bytes(self, data):
        decode_or_wire_error(data)

    @settings(max_examples=500, deadline=None)
    @given(
        data=st.one_of(
            st.binary(max_size=96),
            st.builds(
                bytes.__add__, st.sampled_from(VALID_PREFIXES), st.binary(max_size=48)
            ),
            st.builds(
                lambda valid, at, byte: valid[:at % len(valid)] + bytes([byte])
                + valid[at % len(valid) + 1:],
                st.builds(
                    encode, records, st.one_of(st.none(), st.floats(allow_nan=False))
                ),
                st.integers(0, 10_000),
                st.integers(0, 255),
            ),
        )
    )
    def test_an_accepted_ext_free_datagram_is_the_only_spelling_of_its_record(self, data):
        """Canonical form: what decodes re-encodes to the very same bytes, so
        no two byte strings decode to one record (the v1 decoder read
        ``"s":"1"``, ``"d":1.9`` and ``[true,0]`` as ids)."""
        record = decode_or_wire_error(data)
        if record is None or getattr(record, "ext", None) is not None:
            return
        _, timestamp = decode_with_timestamp(data)
        assert encode(record, timestamp) == data

    def test_the_canonical_search_does_accept_datagrams(self):
        """The property above is not vacuous: its seeds reach every record."""
        accepted = {
            type(decode(prefix)) for prefix in VALID_PREFIXES
            if decode_or_wire_error(prefix) is not None
        }
        assert accepted == set(RECORD_TYPES)

    @settings(max_examples=200, deadline=None)
    @given(
        record=st.one_of(
            records,
            st.builds(
                Message, sender=node_ids, target=node_ids, payload=payloads, kind=kinds,
                ext=st.just({"fd": {"v": 1, "g": [[4, 0, 0, 7]]}}),
            ),
        ),
        ts=st.one_of(st.none(), st.floats(0, 1e9)),
        data=st.data(),
    )
    def test_truncated_and_mutated_datagrams(self, record, ts, data):
        valid = encode(record, timestamp=ts)
        cut = data.draw(st.integers(0, len(valid) - 1), label="cut")
        with pytest.raises(WireError):  # exact length: no prefix is a datagram
            decode_with_timestamp(valid[:cut])
        if getattr(record, "ext", None) is None:
            with pytest.raises(WireError):
                decode_with_timestamp(valid + b"\x00")
        at = data.draw(st.integers(0, len(valid) - 1), label="at")
        byte = data.draw(st.integers(0, 255), label="byte")
        decode_or_wire_error(valid[:at] + bytes([byte]) + valid[at + 1:])

    @settings(max_examples=300, deadline=None)
    @given(
        record=messages,
        key=st.sampled_from(["fd", "v", "g", "x", "a", ""]),
        value=st.sampled_from(
            ["1e999", "-1e999", "NaN", "Infinity", "true", "null", "[]", "{}", "[1,2]",
             '"x"', "1.5", "-1", "7" * 5000, "[[1]]", "[[1,2,3]]", "[[1e999,0]]",
             '{"a":[]}', '{"a":{"v":1}}', '{"1e999":1}', '{"x":1}', "2"]
        ),
        data=st.data(),
    )
    def test_duplicated_key_splices(self, record, key, value, data):
        """A second ``"key":value`` spliced into any object of a valid ext
        tail — the only JSON left on the wire: JSON keeps the last
        duplicate, so this overrides (or is overridden by) the honest field."""
        record.ext = {"fd": {"v": 1, "g": [[4, 0, 0, 7]]}, "x": {"a": {"v": 1}}}
        valid = encode(record, timestamp=1.5)
        fragment = ('"%s":%s' % (key, value)).encode()
        tail_at = 30 + 9 * len(record.payload) + len(record.kind)
        assert valid[tail_at:tail_at + 5] == b'{"fd"'
        braces = [i for i in range(tail_at, len(valid)) if valid[i] in b"{}"]
        at = data.draw(st.sampled_from(braces), label="brace")
        if valid[at:at + 1] == b"{":
            spliced = valid[:at + 1] + fragment + b"," + valid[at + 1:]
        else:
            spliced = valid[:at] + b"," + fragment + valid[at:]
        decoded = decode_or_wire_error(spliced)
        if decoded is not None:  # the binary part is untouched by the splice
            assert (decoded.sender, decoded.payload) == (record.sender, record.payload)
