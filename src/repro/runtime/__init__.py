"""Real-network runtime: S&F over actual (localhost) UDP sockets.

The engines in :mod:`repro.engine` simulate the network; this package
replaces it with the real thing.  Each node is a loop timer plus an
:class:`~repro.net.transport.AsyncioUdpTransport` and a private
:class:`~repro.core.sandf.SendForget` instance holding only its own view
— the same protocol code the simulations run, driven through the same
step/effect seam, with datagrams instead of queue entries in between.

:mod:`repro.runtime.cluster` is the harness: it boots hundreds of nodes
on ephemeral ports, runs an introducer endpoint for joins, injects
receiver-side drop, and executes kill/restart and kill-wave scenarios
while streaming counters into :mod:`repro.obs`.
"""

from repro.runtime.cluster import (
    ClusterConfig,
    ClusterNode,
    ClusterReport,
    LocalCluster,
    run_cluster,
)

__all__ = [
    "ClusterConfig",
    "ClusterNode",
    "ClusterReport",
    "LocalCluster",
    "run_cluster",
]
