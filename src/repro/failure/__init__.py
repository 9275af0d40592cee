"""SWIM-style failure detection on S&F traffic, for the live UDP cluster.

:mod:`repro.failure.detector` is the per-node state machine
(``ALIVE → SUSPECTED → FAILED``, incarnation refutation, heartbeat
freshness, piggyback queue); :mod:`repro.runtime.cluster` runs one
detector in each live UDP node when ``ClusterConfig.failure_detection``
is set.  See ``docs/failure_detection.md``.
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
