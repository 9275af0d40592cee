"""Gossip membership protocols: the common interface and the baselines.

The baselines implement the taxonomy of section 3.1:

* :class:`~repro.protocols.shuffle.ShuffleProtocol` — a Cyclon-style swap
  that deletes sent ids; clean (no dependencies) but unable to withstand
  loss, which the paper uses to motivate S&F.
* :class:`~repro.protocols.push.PushProtocol` — an lpbcast-style push that
  keeps sent ids; loss-immune but builds spatial dependencies.
* :class:`~repro.protocols.pushpull.PushPullProtocol` — an Allavena-style
  combination of reinforcement (push own id) and mixing (pull a view id).

S&F itself lives in :mod:`repro.core.sandf` and implements the same
:class:`~repro.protocols.base.GossipProtocol` interface.
"""

from repro.protocols.base import (
    GossipProtocol,
    ListViewProtocol,
    Message,
    ProtocolStats,
)
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol

__all__ = [
    "GossipProtocol",
    "ListViewProtocol",
    "Message",
    "ProtocolStats",
    "ShuffleProtocol",
    "PushProtocol",
    "PushPullProtocol",
]
