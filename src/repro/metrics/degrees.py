"""Degree summaries and load-balance measurement (Properties M1/M2).

Property M2 asks that, from any initial state, the variance of node
indegrees eventually stays bounded; :func:`indegree_variance` is the
quantity the load-balance experiment tracks over time from adversarial
initial topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.protocols.base import GossipProtocol


@dataclass
class DegreeSummary:
    """Moments and histograms of the current in/out degree profile."""

    outdegree_mean: float
    outdegree_std: float
    indegree_mean: float
    indegree_std: float
    outdegree_min: int
    outdegree_max: int
    indegree_min: int
    indegree_max: int
    outdegree_histogram: Dict[int, int]
    indegree_histogram: Dict[int, int]

    def indegree_variance(self) -> float:
        return self.indegree_std**2


def degree_summary(protocol: GossipProtocol) -> DegreeSummary:
    """Summarize the current degree profile of all live nodes.

    Array-backed kernels expose ``degree_arrays`` (both profiles from the
    id-matrix in a few vectorized ops, and everything below stays in
    numpy); other protocols take the generic per-node walk.
    """
    fast = getattr(protocol, "degree_arrays", None)
    if fast is not None:
        out, indeg = fast()
    else:
        nodes = protocol.node_ids()
        indegree_map = protocol.indegrees()
        out = np.array([protocol.outdegree(u) for u in nodes], dtype=np.int64)
        indeg = np.array([indegree_map[u] for u in nodes], dtype=np.int64)
    if out.size == 0:
        raise ValueError("no live nodes")
    return DegreeSummary(
        outdegree_mean=float(np.mean(out)),
        outdegree_std=float(np.std(out)),
        indegree_mean=float(np.mean(indeg)),
        indegree_std=float(np.std(indeg)),
        outdegree_min=int(out.min()),
        outdegree_max=int(out.max()),
        indegree_min=int(indeg.min()),
        indegree_max=int(indeg.max()),
        outdegree_histogram=_histogram(out),
        indegree_histogram=_histogram(indeg),
    )


def indegree_variance(protocol: GossipProtocol) -> float:
    """Variance of live-node indegrees — the Property M2 time series.

    On array-backed kernels the indegrees come from ``degree_arrays``,
    whose row order is ``indegrees()``'s, so the float is the same.
    """
    fast = getattr(protocol, "degree_arrays", None)
    values = fast()[1] if fast is not None else list(protocol.indegrees().values())
    if len(values) == 0:
        raise ValueError("no live nodes")
    return float(np.var(values))


def id_instance_count(protocol: GossipProtocol, node_id: int) -> int:
    """Instances of ``node_id`` across all live views.

    Unlike :meth:`GossipProtocol.indegrees` this also works for ids of
    departed nodes — the quantity that decays in section 6.5.2.
    """
    state = getattr(protocol, "array_state", None)
    if state is not None:
        ids, _ = state()
        return int((ids == node_id).sum())
    total = 0
    for u in protocol.node_ids():
        total += protocol.view_of(u).get(node_id, 0)
    return total


def _histogram(values: np.ndarray) -> Dict[int, int]:
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))
