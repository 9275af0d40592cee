"""Schema-versioned wire codec for protocol and runtime control records.

Every datagram the UDP runtime puts on the wire is a compact JSON object
with two envelope fields:

* ``v`` — :data:`WIRE_SCHEMA_VERSION`, checked on decode so incompatible
  peers fail loudly instead of corrupting views;
* ``t`` — a short tag selecting the record type.

The protocol payload is the paper's ``[u, w]`` message (section 5): the
sender's own id and the forwarded id, each with its dependence flag.  The
runtime adds two control records for introducer-based join (the shape used
by the UDP gossip-membership daemons in the related work): a
:class:`JoinRequest` announcing a node's listening port, answered by a
:class:`Welcome` carrying bootstrap ids and the address book.

An optional ``ts`` envelope field carries the sender's wall-clock send
time so receivers can sample one-way delivery latency (the transport
benchmark's p50/p99).  ``ts`` is transport metadata, not record state:
:func:`decode` ignores it, :func:`decode_with_timestamp` surfaces it.

Those three records — :class:`~repro.protocols.base.Message`,
:class:`JoinRequest`, :class:`Welcome` — are everything any runtime sends,
so they are everything the codec speaks: a datagram with any other tag is
a :class:`WireError`.  Round-tripping is property-tested with Hypothesis
in ``tests/test_net_wire.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.protocols.base import DATACLASS_SLOTS, Message

NodeId = int

#: Bump on any incompatible change to the datagram layout.  Decoders
#: reject other versions outright — a half-understood membership message
#: could silently corrupt a view, which is worse than dropping it (drops
#: are the one failure S&F is designed for).
WIRE_SCHEMA_VERSION = 1

#: Practical payload ceiling for a localhost UDP datagram (IPv4 65535
#: minus IP/UDP headers).  An S&F message is ~100 bytes; a Welcome for a
#: 1000-node cluster is ~20 KiB — both comfortably under it.
MAX_DATAGRAM = 65507


class WireError(ValueError):
    """A datagram that cannot be decoded: bad JSON, version, tag, or shape."""


@dataclass(**DATACLASS_SLOTS)
class JoinRequest:
    """A joiner announces itself to the introducer.

    ``port`` is where the joiner listens; the introducer records it in the
    address book so existing nodes can route messages to the new id.
    """

    node: NodeId
    port: int


@dataclass(**DATACLASS_SLOTS)
class Welcome:
    """The introducer's answer to a :class:`JoinRequest`.

    ``bootstrap`` is the joiner's initial view contents (at least ``dL``
    live ids, even count — Observation 5.1's join precondition) and
    ``address_book`` maps node ids to UDP ports on the cluster host.
    """

    node: NodeId
    bootstrap: List[NodeId] = field(default_factory=list)
    address_book: Dict[NodeId, int] = field(default_factory=dict)


#: Everything the codec can carry.
WireRecord = Union[Message, JoinRequest, Welcome]

_TAG_MESSAGE = "msg"
_TAG_JOIN = "join"
_TAG_WELCOME = "wlcm"


#: What a hostile-but-parseable datagram can raise while a record is
#: rebuilt from it: missing keys, wrong shapes, ``int(1e999)`` (overflow),
#: ``.items()`` on a non-object.  Decoding turns each into :class:`WireError`.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, AttributeError)

_dumps = json.JSONEncoder(separators=(",", ":")).encode


#: ``{"t":"msg","m":`` — how every message datagram starts.
_MESSAGE_HEAD = '{"t":%s,"m":' % _quote(_TAG_MESSAGE)


def _open_object(obj: Dict[str, Any]) -> str:
    """``obj`` as compact JSON text, minus the closing brace (see :func:`encode`)."""
    return _dumps(obj)[:-1]


def _format_message(message: Message) -> str:
    """The message body as JSON text, written directly.

    Byte for byte what ``json.dumps`` with compact separators emits for
    ``{"s": int, "d": int, "k": str, "p": [[int, 0|1], ...]}`` — this is
    the hot half of every datagram the cluster sends, and building that
    dict for a reflective encoder cost more than the ``sendto``.  The
    oracle dict lives in ``tests/test_net_wire.py``.
    """
    text = '{"s":%d,"d":%d,"k":%s,"p":[%s]' % (
        message.sender,
        message.target,
        _quote(message.kind),
        ",".join(
            ["[%d,%d]" % (node_id, 1 if dep else 0) for node_id, dep in message.payload]
        ),
    )
    # The extension envelope is strictly additive: absent extensions
    # produce the exact pre-extension bytes, so extension-free peers and
    # replays stay bit-identical on the wire.  Each extension key maps to
    # a JSON object that carries its own version field (e.g. the failure
    # detector's liveness gossip, repro.failure.detector.FD_WIRE_VERSION).
    if message.ext:
        ext = {str(key): dict(value) for key, value in message.ext.items()}
        return text + ',"x":' + _dumps(ext) + "}"
    return text + "}"


def _message_from_body(body: Any) -> Message:
    if not isinstance(body, dict):
        raise WireError("malformed message body: not an object")
    try:
        ext = body.get("x")
        if ext is not None:
            if not isinstance(ext, dict) or not all(
                isinstance(value, dict) for value in ext.values()
            ):
                raise WireError("malformed extension envelope")
            ext = {str(key): dict(value) for key, value in ext.items()}
        return Message(
            sender=int(body["s"]),
            target=int(body["d"]),
            payload=[(int(v), bool(f)) for v, f in body["p"]],
            kind=str(body["k"]),
            ext=ext,
        )
    except _MALFORMED as exc:
        raise WireError("malformed message body") from exc


def _port(value: Any) -> int:
    """A UDP port a peer announced: an int in 1..65535, or the datagram is
    malformed.  Receivers ``sendto`` these; any other value raises there
    (``OverflowError``, which asyncio treats as fatal to the *sender's*
    socket), so it must not get past the decoder."""
    if type(value) is not int or not 0 < value < 65536:
        raise WireError(f"not a UDP port: {value!r}")
    return value


def encode(record: WireRecord, timestamp: Optional[float] = None) -> bytes:
    """Serialize ``record`` into one versioned datagram.

    ``timestamp`` (sender wall-clock seconds) rides in the envelope for
    latency sampling; it is not part of the record and does not affect
    round-trip equality.
    """
    # Each branch leaves ``text`` one "}" short of a JSON object, so the
    # envelope's ``v`` and ``ts`` are appended the same way for all three.
    if isinstance(record, Message):
        text = _MESSAGE_HEAD + _format_message(record)
    elif isinstance(record, JoinRequest):
        text = _open_object(
            {"t": _TAG_JOIN, "n": int(record.node), "port": int(record.port)}
        )
    elif isinstance(record, Welcome):
        text = _open_object(
            {
                "t": _TAG_WELCOME,
                "n": int(record.node),
                "b": [int(v) for v in record.bootstrap],
                "a": {str(int(k)): int(p) for k, p in record.address_book.items()},
            }
        )
    else:
        raise WireError(f"cannot encode record of type {type(record).__name__}")
    text += ',"v":%d' % WIRE_SCHEMA_VERSION
    if timestamp is not None:
        # repr is what the JSON encoder emits for a finite float; it alone
        # knows how to spell everything else (ints, NaN, Infinity).
        finite = type(timestamp) is float and math.isfinite(timestamp)
        text += ',"ts":' + (repr(timestamp) if finite else _dumps(timestamp))
    data = (text + "}").encode("utf-8")
    if len(data) > MAX_DATAGRAM:
        raise WireError(f"record encodes to {len(data)} bytes > {MAX_DATAGRAM}")
    return data


def decode_with_timestamp(data: bytes) -> Tuple[WireRecord, Optional[float]]:
    """Decode one datagram; return ``(record, sender_timestamp_or_None)``.

    Fails closed: whatever the bytes are, the outcome is a record or a
    :class:`WireError` — never another exception, so a receiver's cost for
    a hostile datagram is one ``decode_errors`` increment.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer literal beyond the
        # interpreter's digit limit.  RecursionError: nesting too deep.
        raise WireError(f"undecodable datagram ({len(data)} bytes)") from exc
    if not isinstance(obj, dict):
        raise WireError(f"datagram is not an object: {type(obj).__name__}")
    version = obj.get("v")
    # ``True == 1`` and ``1.0 == 1``: the version is an int or it is wrong.
    if type(version) is not int or version != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"wire schema version mismatch: got {version!r}, "
            f"speak {WIRE_SCHEMA_VERSION}"
        )
    tag = obj.get("t")
    timestamp = obj.get("ts")
    try:
        # A NaN or infinite ts would poison the latency percentiles.
        if timestamp is not None and not (
            type(timestamp) in (int, float) and math.isfinite(timestamp)
        ):
            raise WireError("ts field is not a finite number")
        if tag == _TAG_MESSAGE:
            return _message_from_body(obj["m"]), timestamp
        if tag == _TAG_JOIN:
            return JoinRequest(node=int(obj["n"]), port=_port(obj["port"])), timestamp
        if tag == _TAG_WELCOME:
            return (
                Welcome(
                    node=int(obj["n"]),
                    bootstrap=[int(v) for v in obj["b"]],
                    address_book={int(k): _port(p) for k, p in obj["a"].items()},
                ),
                timestamp,
            )
    except _MALFORMED as exc:
        raise WireError(f"malformed {tag!r} datagram") from exc
    raise WireError(f"unknown wire tag: {tag!r}")


def decode(data: bytes) -> WireRecord:
    """Decode one datagram, discarding the latency timestamp if present."""
    record, _ = decode_with_timestamp(data)
    return record
