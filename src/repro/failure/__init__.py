"""SWIM-style failure detection layered on S&F gossip traffic.

:mod:`repro.failure.detector` is the per-node state machine
(``ALIVE → SUSPECTED → FAILED``, incarnation refutation, heartbeat
freshness, piggyback queue); :mod:`repro.failure.layer` plugs one
detector per node into any :class:`~repro.protocols.base.GossipProtocol`
on the step/effect seam, and :mod:`repro.runtime.cluster` wires the
same detector into the live UDP nodes.  See ``docs/failure_detection.md``.
"""

from repro.failure.detector import (
    FD_EXT_KEY,
    FD_WIRE_VERSION,
    DetectorConfig,
    FailureDetector,
    LivenessUpdate,
    PeerRecord,
    PeerState,
)
from repro.failure.layer import FailureDetectorLayer

__all__ = [
    "FD_EXT_KEY",
    "FD_WIRE_VERSION",
    "DetectorConfig",
    "FailureDetector",
    "LivenessUpdate",
    "PeerRecord",
    "PeerState",
    "FailureDetectorLayer",
]
