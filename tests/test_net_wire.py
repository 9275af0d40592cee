"""Tests for repro.net.wire (versioned datagram codec).

The codec is the compatibility boundary between protocol code and any
process/network boundary a record crosses; the Hypothesis round-trip
property is the contract: decode(encode(x)) == x for every encodable
record, bit-for-bit at the dataclass level.
"""

import json
import math
import pickle
import sys

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
        obj = json.loads(encode(JoinRequest(node=5, port=1)))
        assert obj["v"] == WIRE_SCHEMA_VERSION

    def test_wrong_version_rejected(self):
        obj = json.loads(encode(JoinRequest(node=5, port=1)))
        obj["v"] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode(json.dumps(obj).encode())

    def test_unknown_tag_rejected(self):
        payload = json.dumps({"v": WIRE_SCHEMA_VERSION, "t": "???"}).encode()
        with pytest.raises(WireError, match="unknown wire tag"):
            decode(payload)

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode(b"\xff\x00 not json")
        with pytest.raises(WireError, match="not an object"):
            decode(b"[1,2,3]")

    def test_malformed_body_rejected(self):
        payload = json.dumps(
            {"v": WIRE_SCHEMA_VERSION, "t": "msg", "m": {"s": 1}}
        ).encode()
        with pytest.raises(WireError, match="malformed"):
            decode(payload)

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

    def test_datagrams_are_compact_json(self):
        data = encode(Message(sender=1, target=2, payload=[(1, False)], kind="sandf"))
        assert b" " not in data  # separators=(",", ":")
        assert len(data) < 200


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
    """The additive "x" envelope carrying e.g. liveness gossip."""

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
        assert b'"x"' not in raw  # strictly additive: no key when empty
        assert decode(raw).ext is None

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
        message = Message(sender=1, target=2, payload=[], kind="sandf")
        raw = json.loads(encode(message))
        raw["m"]["x"] = ["not", "a", "dict"]
        with pytest.raises(WireError):
            decode(json.dumps(raw).encode())

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
# The direct message formatter against its oracle
# ----------------------------------------------------------------------


def reference_encode(message, timestamp):
    """The oracle: ``json.dumps`` of the explicit dict, as the codec was
    first written.  The production encoder formats messages directly and
    must emit these bytes exactly — that identity is
    the wire-compatibility proof between commits (schema version 1)."""
    body = {
        "s": int(message.sender),
        "d": int(message.target),
        "k": message.kind,
        "p": [[int(node_id), 1 if dep else 0] for node_id, dep in message.payload],
    }
    if message.ext:
        body["x"] = {str(key): dict(value) for key, value in message.ext.items()}
    obj = {"t": "msg", "m": body, "v": WIRE_SCHEMA_VERSION}
    if timestamp is not None:
        obj["ts"] = timestamp
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


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
    st.integers(-(10**6), 10**6).map(float),  # integral: "5.0", never "5"
    st.floats(min_value=0.0, max_value=1e-300),  # tiny and subnormal
    st.floats(min_value=1e16, max_value=1e308),  # exponent notation
    st.integers(-(2**70), 2**70),  # not a float: the JSON encoder's spelling
)


class TestDirectFormatter:
    @settings(max_examples=300, deadline=None)
    @given(message=any_messages, timestamp=timestamps)
    def test_message_records_match_the_json_oracle_byte_for_byte(
        self, message, timestamp
    ):
        assert encode(message, timestamp) == reference_encode(message, timestamp)

    def test_the_benchmarked_datagram_is_75_bytes(self):
        message = Message(
            sender=3, target=5, payload=[(3, False), (11, True)], kind="sandf"
        )
        assert encode(message, timestamp=1.0) == (
            b'{"t":"msg","m":{"s":3,"d":5,"k":"sandf","p":[[3,0],[11,1]]},"v":1,"ts":1.0}'
        )
        assert len(encode(message, timestamp=1.0)) == 75


# ----------------------------------------------------------------------
# Decode fails closed
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
    assert timestamp is None or (
        type(timestamp) in (int, float) and math.isfinite(timestamp)
    )
    return record


def nested(depth, opener, closer):
    return opener * depth + closer * depth


HOSTILE = {
    "overflowing message field": b'{"v":1,"t":"msg","m":{"s":1e999,"d":2,"k":"k","p":[]}}',
    "overflowing payload id": b'{"v":1,"t":"msg","m":{"s":1,"d":2,"k":"k","p":[[1e999,0]]}}',
    "overflowing join field": b'{"v":1,"t":"join","n":1e999,"port":1}',
    "brackets beyond the recursion limit": b"[" * 200_000,
    "object beyond the recursion limit under m": (
        b'{"v":1,"t":"msg","m":' + nested(100_000, b'{"a":', b"}") + b"}"
    ),
    "integer literal beyond the digit limit": (
        b'{"v":1,"t":"join","port":1,"n":' + b"7" * 5000 + b"}"
    ),
    "address book that is a list": b'{"v":1,"t":"wlcm","n":1,"b":[1],"a":[1,2]}',
    "NaN timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":NaN}',
    "infinite timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":Infinity}',
    "negative infinite timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":-Infinity}',
    "timestamp too large for a float": (
        b'{"v":1,"t":"join","n":1,"port":1,"ts":1' + b"0" * 400 + b"}"
    ),
    "boolean timestamp": b'{"v":1,"t":"join","n":1,"port":1,"ts":true}',
    # The three records no runtime sent, as the parent's encoder wrote them.
    "retired init tag": b'{"t":"init","n":1,"v":1,"ts":-1e+300}',
    "retired dlvr tag": b'{"t":"dlvr","m":{"s":3,"d":5,"k":"k","p":[[3,0]]},"v":1}',
    "retired send tag": b'{"t":"send","m":{"s":3,"d":5,"k":"k","p":[[3,0]]},"r":1,"v":1}',
    # A port nobody can sendto(): OverflowError there closes the *sender's*
    # asyncio socket, so it must die in the decoder.
    "join port beyond 65535": b'{"t":"join","n":5,"port":99999,"v":1}',
    "join port zero": b'{"t":"join","n":5,"port":0,"v":1}',
    "boolean join port": b'{"t":"join","n":5,"port":true,"v":1}',
    "fractional join port": b'{"t":"join","n":5,"port":1.5,"v":1}',
    "address-book port beyond 65535": b'{"t":"wlcm","n":1,"b":[2],"a":{"2":99999},"v":1}',
    "boolean version": b'{"v":true,"t":"join","n":1,"port":1}',
    "float version": b'{"v":1.0,"t":"join","n":1,"port":1}',
}


class TestDecodeFailsClosed:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_datagram_is_a_wire_error(self, name):
        with pytest.raises(WireError):
            decode_with_timestamp(HOSTILE[name])

    def test_nesting_around_the_recursion_limit(self):
        """Whatever depth the parser survives, building the error message
        (or the record) from the result must survive too."""
        limit = sys.getrecursionlimit()
        for depth in range(max(1, limit - 400), limit + 100, 13):
            for deep in (nested(depth, "[", "]"), nested(depth, '{"a":', "}")[:-1] + "1}"):
                for slot in ("v", "t", "ts", "m", "n", "x"):
                    decode_or_wire_error(
                        ('{"v":1,"t":"msg","%s":%s}' % (slot, deep)).encode()
                    )
                decode_or_wire_error(deep.encode())
                decode_or_wire_error(
                    ('{"v":1,"t":"msg","m":{"s":1,"d":2,"k":"k","p":[],"x":{"e":%s}}}'
                     % deep).encode()
                )

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_arbitrary_bytes(self, data):
        decode_or_wire_error(data)

    @settings(max_examples=200, deadline=None)
    @given(record=records, ts=st.one_of(st.none(), st.floats(0, 1e9)), data=st.data())
    def test_truncated_and_mutated_datagrams(self, record, ts, data):
        valid = encode(record, timestamp=ts)
        cut = data.draw(st.integers(0, len(valid)), label="cut")
        decode_or_wire_error(valid[:cut])
        at = data.draw(st.integers(0, len(valid) - 1), label="at")
        byte = data.draw(st.integers(0, 255), label="byte")
        decode_or_wire_error(valid[:at] + bytes([byte]) + valid[at + 1:])

    @settings(max_examples=300, deadline=None)
    @given(
        record=records,
        key=st.sampled_from(
            ["v", "t", "ts", "m", "n", "port", "b", "a", "r", "s", "d", "k", "p", "x"]
        ),
        value=st.sampled_from(
            ["1e999", "-1e999", "NaN", "Infinity", "true", "null", "[]", "{}", "[1,2]",
             '"x"', "1.5", "-1", "7" * 5000, "[[1]]", "[[1,2,3]]", "[[1e999,0]]",
             '{"a":[]}', '{"a":{"v":1}}', '{"1e999":1}', '{"x":1}', "2"]
        ),
        data=st.data(),
    )
    def test_duplicated_key_splices(self, record, key, value, data):
        """A second ``"key":value`` spliced into any object of a valid
        datagram: JSON keeps the last duplicate, so this overrides (or is
        overridden by) the honest field."""
        valid = encode(record, timestamp=1.5)
        fragment = ('"%s":%s' % (key, value)).encode()
        braces = [i for i, byte in enumerate(valid) if byte in b"{}"]
        at = data.draw(st.sampled_from(braces), label="brace")
        if valid[at:at + 1] == b"{":
            spliced = valid[:at + 1] + fragment + b"," + valid[at + 1:]
        else:
            spliced = valid[:at] + b"," + fragment + valid[at:]
        decode_or_wire_error(spliced)
