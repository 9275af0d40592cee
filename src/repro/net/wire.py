"""Schema-versioned wire codec for protocol and runtime control records.

Every datagram the UDP runtime puts on the wire is a fixed binary layout
in network byte order (``i64`` signed, ``u8`` / ``u16`` unsigned, ``f64``
IEEE double)::

    offset 0   u8   version   WIRE_SCHEMA_VERSION; other values are rejected
           1   u8   tag       1 message, 2 join request, 3 welcome
           2   u8   flags     bit 0: ts present; bit 1: ext present
                              (messages only); other bits must be zero
           3   f64  ts        only when flagged; must be finite

    message        i64 sender, i64 target, u8 len(kind), u16 pair count,
                   then per pair (i64 id, u8 dependence flag: 0 or 1),
                   then ``kind`` as UTF-8, then the ext tail when flagged
    join request   i64 node, u16 port (1..65535)
    welcome        i64 node, u16 bootstrap count, u16 address-book count,
                   then the bootstrap ids (i64 each), then the address
                   book as (i64 id, u16 port 1..65535) entries, ids distinct

so a message is ``22 + 9 * len(payload) + len(kind.encode())`` bytes, 8
more with a ``ts`` — the ``[u, w]`` S&F datagram the cluster sends is 53.

The protocol payload is the paper's ``[u, w]`` message (section 5): the
sender's own id and the forwarded id, each with its dependence flag.  The
runtime adds two control records for introducer-based join (the shape used
by the UDP gossip-membership daemons in the related work): a
:class:`JoinRequest` announcing a node's listening port, answered by a
:class:`Welcome` carrying bootstrap ids and the address book.

``ts`` carries the sender's clock at send time so receivers can sample
one-way delivery latency (the transport benchmark's p50/p99).  It is
transport metadata, not record state: :func:`decode` ignores it,
:func:`decode_with_timestamp` surfaces it.

The ext tail is :attr:`Message.ext <repro.protocols.base.Message.ext>` —
a JSON object mapping each extension key to a self-versioned JSON object
(the failure detector's ``{"fd": {...}}``) — and is the only JSON on the
wire: a message without extensions carries none.

Decoding is strict: the length must be exact, every flag byte 0 or 1, so
an accepted ext-free datagram is the *only* spelling of its record
(``encode(*decode_with_timestamp(b)) == b``).  Those three records —
:class:`~repro.protocols.base.Message`, :class:`JoinRequest`,
:class:`Welcome` — are everything any runtime sends, so they are
everything the codec speaks.  Round trip, canonical form and fail-closed
decoding are property-tested with Hypothesis in ``tests/test_net_wire.py``;
``tests/data/wire_v2_golden.json`` pins the bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from math import isfinite
from typing import Dict, List, Optional, Tuple, Union

from repro.protocols.base import DATACLASS_SLOTS, Message

NodeId = int

#: Bump on any incompatible change to the datagram layout.  Decoders
#: reject other versions outright — a half-understood membership message
#: could silently corrupt a view, which is worse than dropping it (drops
#: are the one failure S&F is designed for).  Version 1 was JSON text: its
#: first byte is ``{`` (0x7B), so the two versions reject each other here.
WIRE_SCHEMA_VERSION = 2

#: Practical payload ceiling for a localhost UDP datagram (IPv4 65535
#: minus IP/UDP headers).  An S&F message is 53 bytes; a Welcome for a
#: 1000-node cluster is ~10 KiB — both comfortably under it.
MAX_DATAGRAM = 65507


class WireError(ValueError):
    """A datagram that cannot be decoded (bad version, tag, flags, length
    or field), or a record that no datagram can hold."""


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

_TAG_MESSAGE = 1
_TAG_JOIN = 2
_TAG_WELCOME = 3

_FLAG_TS = 1
_FLAG_EXT = 2

_HEAD = struct.Struct("!BBB")
_HEAD_TS = struct.Struct("!BBBd")
_MESSAGE = struct.Struct("!qqBH")
_PAIR = struct.Struct("!qB")
_JOIN = struct.Struct("!qH")
_WELCOME = struct.Struct("!qHH")
_ID = struct.Struct("!q")
_ENTRY = struct.Struct("!qH")

_dumps = json.JSONEncoder(separators=(",", ":")).encode


def encode(record: WireRecord, timestamp: Optional[float] = None) -> bytes:
    """Serialize ``record`` into one versioned datagram.

    ``timestamp`` (sender clock seconds) rides in the header for latency
    sampling; it is not part of the record and does not affect round-trip
    equality.  A record the layout cannot hold — an id outside signed 64
    bits, a ``kind`` over 255 bytes, more than 65535 pairs, a port or
    ``timestamp`` of the wrong type or range — is a :class:`WireError`.
    """
    flags = 0 if timestamp is None else _FLAG_TS
    tail = b""
    try:
        if isinstance(record, Message):
            tag = _TAG_MESSAGE
            kind = record.kind.encode("utf-8")
            payload = record.payload
            parts = [
                _MESSAGE.pack(record.sender, record.target, len(kind), len(payload))
            ]
            pack = _PAIR.pack
            for node_id, dependent in payload:
                parts.append(pack(node_id, 1 if dependent else 0))
            parts.append(kind)
            # The extension envelope is strictly additive: a message without
            # extensions carries no flag and no tail.  Each extension key maps
            # to a JSON object with its own version field (e.g. the failure
            # detector's liveness gossip, repro.failure.detector.FD_WIRE_VERSION).
            if record.ext:
                flags |= _FLAG_EXT
                tail = _dumps(
                    {str(key): dict(value) for key, value in record.ext.items()}
                ).encode("utf-8")
        elif isinstance(record, JoinRequest):
            tag = _TAG_JOIN
            parts = [_JOIN.pack(record.node, record.port)]
        elif isinstance(record, Welcome):
            tag = _TAG_WELCOME
            bootstrap, book = record.bootstrap, record.address_book
            parts = [_WELCOME.pack(record.node, len(bootstrap), len(book))]
            parts += map(_ID.pack, bootstrap)
            parts += [_ENTRY.pack(peer, port) for peer, port in book.items()]
        else:
            raise WireError(f"cannot encode record of type {type(record).__name__}")
        if timestamp is None:
            head = _HEAD.pack(WIRE_SCHEMA_VERSION, tag, flags)
        else:
            head = _HEAD_TS.pack(WIRE_SCHEMA_VERSION, tag, flags, timestamp)
    except WireError:
        raise
    except (struct.error, OverflowError, TypeError, ValueError) as exc:
        # struct.error: a value outside its field; OverflowError: an int ts
        # no double holds; TypeError / ValueError: a field of the wrong type,
        # a kind that is not encodable text, an ext that is not JSON.
        raise WireError(f"cannot encode this {type(record).__name__}: {exc}") from exc
    data = head + b"".join(parts) + tail
    if len(data) > MAX_DATAGRAM:
        raise WireError(f"record encodes to {len(data)} bytes > {MAX_DATAGRAM}")
    return data


def _port(value: int) -> int:
    """A UDP port a peer announced: 1..65535, or the datagram is malformed.
    Receivers ``sendto`` these, and port 0 is nobody's address."""
    if value == 0:
        raise WireError("not a UDP port: 0")
    return value


def _exact(data: bytes, length: int, what: str) -> None:
    """Every count in a header is checked against ``len(data)`` here,
    before anything is sized by it."""
    if len(data) != length:
        raise WireError(
            f"{what} datagram is {len(data)} bytes, its header says {length}"
        )


def _decode_message(data: bytes, offset: int, has_ext: int) -> Message:
    sender, target, kind_length, pairs = _MESSAGE.unpack_from(data, offset)
    offset += _MESSAGE.size
    kind_at = offset + _PAIR.size * pairs
    end = kind_at + kind_length
    ext = None
    if has_ext:
        if len(data) <= end:
            raise WireError(f"message datagram is {len(data)} bytes, no ext tail")
        ext = json.loads(data[end:].decode("utf-8"))
        if not isinstance(ext, dict) or not all(
            isinstance(value, dict) for value in ext.values()
        ):
            raise WireError("malformed extension envelope")
    else:
        _exact(data, end, "message")
    payload = []
    for node_id, dependent in _PAIR.iter_unpack(data[offset:kind_at]):
        if dependent > 1:
            raise WireError(f"dependence flag is {dependent}, not 0 or 1")
        payload.append((node_id, dependent == 1))
    return Message(sender, target, payload, data[kind_at:end].decode("utf-8"), ext)


def _decode_welcome(data: bytes, offset: int) -> Welcome:
    node, bootstrap_count, book_count = _WELCOME.unpack_from(data, offset)
    offset += _WELCOME.size
    book_at = offset + _ID.size * bootstrap_count
    _exact(data, book_at + _ENTRY.size * book_count, "welcome")
    bootstrap = [node_id for (node_id,) in _ID.iter_unpack(data[offset:book_at])]
    book = {peer: _port(port) for peer, port in _ENTRY.iter_unpack(data[book_at:])}
    if len(book) != book_count:
        raise WireError("address book names an id twice")
    return Welcome(node, bootstrap, book)


def decode_with_timestamp(data: bytes) -> Tuple[WireRecord, Optional[float]]:
    """Decode one datagram; return ``(record, sender_timestamp_or_None)``.

    Fails closed: whatever the bytes are, the outcome is a record or a
    :class:`WireError` — never another exception, so a receiver's cost for
    a hostile datagram is one ``decode_errors`` increment.
    """
    try:
        if data[0] != WIRE_SCHEMA_VERSION:
            raise WireError(
                f"wire schema version mismatch: got {data[0]}, "
                f"speak {WIRE_SCHEMA_VERSION}"
            )
        tag, flags = data[1], data[2]
        if flags & _FLAG_TS:
            timestamp = _HEAD_TS.unpack_from(data)[3]
            # A NaN or infinite ts would poison the latency percentiles.
            if not isfinite(timestamp):
                raise WireError("ts field is not a finite number")
            offset = _HEAD_TS.size
        else:
            timestamp = None
            offset = _HEAD.size
        has_ext = flags & _FLAG_EXT
        if flags > _FLAG_TS | _FLAG_EXT or (has_ext and tag != _TAG_MESSAGE):
            raise WireError(f"flag bits {flags:#04x} on a tag-{tag} datagram")
        if tag == _TAG_MESSAGE:
            return _decode_message(data, offset, has_ext), timestamp
        if tag == _TAG_JOIN:
            _exact(data, offset + _JOIN.size, "join")
            node, port = _JOIN.unpack_from(data, offset)
            return JoinRequest(node, _port(port)), timestamp
        if tag == _TAG_WELCOME:
            return _decode_welcome(data, offset), timestamp
    except WireError:
        raise
    except (IndexError, struct.error, ValueError, RecursionError) as exc:
        # IndexError / struct.error: shorter than its own header.
        # ValueError: a kind or ext tail that is not UTF-8, or not JSON.
        # RecursionError: an ext tail nested too deep.
        raise WireError(f"malformed datagram ({len(data)} bytes)") from exc
    raise WireError(f"unknown wire tag: {tag}")


def decode(data: bytes) -> WireRecord:
    """Decode one datagram, discarding the latency timestamp if present."""
    record, _ = decode_with_timestamp(data)
    return record
