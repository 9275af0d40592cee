"""Transports: how a :class:`~repro.protocols.base.SendEffect` travels.

The protocol layer produces typed effects and never learns what happens
to them — exactly the paper's send-and-forget contract (section 5: after
sending, the node keeps no bookkeeping about the message).  A transport
owns the channel between the send seam and the receive seam:

* :class:`LoopbackTransport` — an in-memory FIFO channel with a
  :class:`~repro.net.loss.LossModel` applied at the send seam.  The
  simulation engines drive it synchronously; it exists to prove the seam
  (the same effects, routed differently, reproduce the engines'
  bit-identical runs).
* :class:`AsyncioUdpTransport` — a real UDP endpoint on localhost with
  the versioned wire codec (:mod:`repro.net.wire`), *receiver-side* drop
  injection (the datagram is read off the socket and then discarded with
  probability ``drop_rate``, like the related UDP daemons' drop knob),
  an inbound admission filter, and one-way latency sampling from the
  sender timestamp in the envelope.

Both keep delivery/drop counters so harnesses can assert conservation:
nothing leaves a transport unaccounted.
"""

from __future__ import annotations

import abc
import asyncio
import time
from array import array
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.net.loss import LossModel, NoLoss
from repro.net.wire import WireError, WireRecord, decode_with_timestamp, encode
from repro.protocols.base import SendEffect
from repro.util.rng import make_rng

NodeId = int

#: Resolves a node id to a UDP address, or None if unknown/departed.
AddressResolver = Callable[[NodeId], Optional[Tuple[str, int]]]

#: Receives each surviving inbound record: ``(record, sender_ts, addr)``.
RecordHandler = Callable[[WireRecord, Optional[float], Tuple[str, int]], None]

#: Receiver-side admission check: return False to drop the record (the
#: cluster drops anything but an S&F ``[u, w]`` addressed to the receiver —
#: the datagram arrives at the socket but never reaches the protocol).
InboundFilter = Callable[[WireRecord], bool]

#: Latency samples one UDP transport keeps (the percentiles need no more).
MAX_LATENCY_SAMPLES = 100_000


class Transport(abc.ABC):
    """Carries effects produced at the step/effect seam.

    ``send`` returns True if the message entered the channel (delivery
    still not guaranteed — the receiver side may drop it), False if it
    was dropped at the send seam.  Senders must not branch on the result
    beyond accounting: the protocol never learns the outcome.
    """

    @abc.abstractmethod
    def send(self, effect: SendEffect, rng) -> bool:
        """Hand one effect to the channel."""


class LoopbackTransport(Transport):
    """Synchronous in-memory channel with loss applied at the send seam.

    Surviving effects queue in FIFO order; the driving engine drains them
    with :meth:`poll` and runs the receive step itself.  FIFO matters:
    for request/reply protocols it reproduces the exact RNG draw order of
    the pre-seam engines (request loss draw, receive draws, reply loss
    draw, reply receive draws), keeping seeded runs bit-identical.
    """

    def __init__(self, loss: Optional[LossModel] = None):
        self.loss = loss if loss is not None else NoLoss()
        self.sent = 0
        self.dropped = 0
        self._queue: Deque[SendEffect] = deque()

    def send(self, effect: SendEffect, rng) -> bool:
        self.sent += 1
        message = effect.message
        if self.loss.is_lost(message.sender, message.target, rng):
            self.dropped += 1
            return False
        self._queue.append(effect)
        return True

    def poll(self) -> Optional[SendEffect]:
        """Next queued effect in send order, or None when the channel is idle."""
        if self._queue:
            return self._queue.popleft()
        return None

    def pending(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"LoopbackTransport(loss={self.loss!r}, pending={len(self._queue)})"


class _DatagramBridge(asyncio.DatagramProtocol):
    """Socket-facing half of :class:`AsyncioUdpTransport`."""

    def __init__(self, owner: "AsyncioUdpTransport"):
        self._owner = owner

    def connection_made(self, transport) -> None:  # pragma: no cover - trivial
        self._owner._socket = transport

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self._owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        self._owner.socket_errors += 1


class AsyncioUdpTransport(Transport):
    """A UDP endpoint speaking the versioned wire format.

    Create with :meth:`create` (binds the socket on the running loop; port
    0 picks an ephemeral port, so hundreds of transports coexist on one
    host without coordination).  Outbound records are addressed through
    ``resolve`` (node id → address); inbound datagrams are decoded, run
    through the receiver-side drop draw and the admission filter, then
    handed to ``on_record``.

    Drop injection is deliberately *receiver-side*: the datagram really
    crosses the socket and is discarded after arrival, so the sender's
    code path is byte-for-byte the lossless one — matching both the
    paper's model (the sender cannot detect loss) and the related UDP
    daemons' drop knob.
    """

    def __init__(
        self,
        on_record: RecordHandler,
        *,
        drop_rate: float = 0.0,
        rng=None,
        resolve: Optional[AddressResolver] = None,
        inbound_filter: Optional[InboundFilter] = None,
    ):
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        self.on_record = on_record
        self.drop_rate = drop_rate
        self.rng = rng if rng is not None else make_rng(None)
        self.resolve = resolve
        self.inbound_filter = inbound_filter
        self._socket: Optional[asyncio.DatagramTransport] = None
        self._addr: Optional[Tuple[str, int]] = None
        # Conservation ledger: received == delivered + dropped + filtered
        # + decode_errors; sent == datagrams actually written + unroutable.
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.delivered = 0
        self.dropped = 0
        self.filtered = 0
        self.decode_errors = 0
        self.unroutable = 0
        self.socket_errors = 0
        #: One-way delivery latencies [s], unboxed: a saturated run fills
        #: the reservoir on every node, and a list of floats is 4x the bytes.
        self.latency_samples = array("d")
        #: No honest datagram was stamped before this: ``create`` binds the
        #: socket right after construction.
        self._created_at = time.monotonic()

    @classmethod
    async def create(
        cls,
        on_record: RecordHandler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ) -> "AsyncioUdpTransport":
        """Bind a datagram endpoint and return the ready transport."""
        self = cls(on_record, **kwargs)
        loop = asyncio.get_running_loop()
        await loop.create_datagram_endpoint(
            lambda: _DatagramBridge(self), local_addr=(host, port)
        )
        assert self._socket is not None
        self._addr = self._socket.get_extra_info("sockname")[:2]
        return self

    # -- addressing -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._addr is None:
            raise RuntimeError("transport is not bound; use AsyncioUdpTransport.create")
        return self._addr

    @property
    def port(self) -> int:
        return self.address[1]

    # -- outbound -------------------------------------------------------

    def send_record(
        self,
        record: WireRecord,
        addr: Tuple[str, int],
        timestamp: Optional[float] = None,
    ) -> None:
        """Encode and write one record to ``addr`` (fire and forget)."""
        if self._socket is None:
            raise RuntimeError("transport is not bound; use AsyncioUdpTransport.create")
        self._socket.sendto(encode(record, timestamp=timestamp), addr)
        self.datagrams_sent += 1

    def send(self, effect: SendEffect, rng) -> bool:
        """Seam entry point: route ``effect.message`` by target id."""
        if self.resolve is None:
            raise RuntimeError("send() needs a resolver; use send_record for raw sends")
        addr = self.resolve(effect.message.target)
        if addr is None:
            # Unknown/departed target: the datagram evaporates, which the
            # sender cannot distinguish from loss (the paper's leave model).
            self.unroutable += 1
            return False
        self.send_record(effect.message, addr, timestamp=time.monotonic())
        return True

    # -- inbound --------------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.datagrams_received += 1
        try:
            record, timestamp = decode_with_timestamp(data)
        except WireError:
            self.decode_errors += 1
            return
        if self.drop_rate > 0.0 and float(self.rng.random()) < self.drop_rate:
            self.dropped += 1  # receiver-side injection: read, then discarded
            return
        if self.inbound_filter is not None and not self.inbound_filter(record):
            self.filtered += 1
            return
        if timestamp is not None and len(self.latency_samples) < MAX_LATENCY_SAMPLES:
            # The stamp is the sender's word.  One from the future, or from
            # before this socket existed, is delivered like any other record
            # but kept out of the latency percentiles.
            now = time.monotonic()
            if self._created_at <= timestamp <= now:
                self.latency_samples.append(now - timestamp)
        self.delivered += 1
        self.on_record(record, timestamp, addr)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __repr__(self) -> str:
        where = self._addr if self._addr else "unbound"
        return (
            f"AsyncioUdpTransport({where}, drop={self.drop_rate}, "
            f"in={self.datagrams_received}, out={self.datagrams_sent})"
        )
