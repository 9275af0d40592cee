"""Network substrate: loss and delay models, wire codec, transports.

The paper analyzes uniform i.i.d. loss (each message independently lost
with probability ℓ, section 4.1).  :class:`UniformLoss` implements exactly
that.  Real networks also exhibit bursty loss and partitions; the
Gilbert–Elliott and partition models are provided so experiments can probe
robustness beyond the paper's model (its section 8 future work).

:mod:`repro.net.transport` carries the messages themselves: the engines'
in-memory :class:`LoopbackTransport` (loss model applied at the seam) and
the runtime's :class:`AsyncioUdpTransport` speaking the schema-versioned
binary datagram layout of :mod:`repro.net.wire` (schema 2: fixed-width
fields, JSON only in a message's optional extension tail).
"""

from repro.net.delay import ConstantDelay, DelayModel, ExponentialDelay, UniformDelay
from repro.net.loss import (
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    PartitionLoss,
    UniformLoss,
)
from repro.net.transport import AsyncioUdpTransport, LoopbackTransport, Transport
from repro.net.wire import (
    WIRE_SCHEMA_VERSION,
    JoinRequest,
    Welcome,
    WireError,
    decode,
    decode_with_timestamp,
    encode,
)

__all__ = [
    "LossModel",
    "NoLoss",
    "UniformLoss",
    "GilbertElliottLoss",
    "PartitionLoss",
    "DelayModel",
    "ConstantDelay",
    "ExponentialDelay",
    "UniformDelay",
    "Transport",
    "LoopbackTransport",
    "AsyncioUdpTransport",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "JoinRequest",
    "Welcome",
    "encode",
    "decode",
    "decode_with_timestamp",
]
