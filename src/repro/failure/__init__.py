"""A SWIM-style failure detector that no runtime arms.

:mod:`repro.failure.detector` is the per-node state machine
(``ALIVE → SUSPECTED → FAILED``, incarnation refutation, heartbeat
freshness, piggyback queue) and its ``{"fd": ...}`` wire blob.  The
paper's model treats a crash as a leave nobody announces (section 4.1),
so the live cluster runs none of this: a crashed node's id drains from
live views instead.  The library is kept only for the benchmark suite's
codec and detector probes.  See ``docs/failure_detection.md``.
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

__all__ = [
    "FD_EXT_KEY",
    "FD_WIRE_VERSION",
    "DetectorConfig",
    "FailureDetector",
    "LivenessUpdate",
    "PeerRecord",
    "PeerState",
]
