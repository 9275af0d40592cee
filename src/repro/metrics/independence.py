"""Spatial-independence measurement (Property M4, section 7.4).

Two complementary estimators:

* For S&F, :meth:`repro.core.sandf.SendForget.dependent_fraction` reads
  the operational dependence labels (duplication provenance plus
  self-edges and in-view duplicates) — compared against ``2(ℓ+δ)``.
* For *any* protocol, :func:`neighbor_overlap_fraction` measures how much
  neighboring views share content beyond the i.i.d.-uniform baseline
  :func:`expected_iid_overlap` — the observable consequence of dependence
  that protocols which keep sent ids (push, push-pull) accumulate.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import GossipProtocol


def expected_iid_overlap(view_a_size: int, view_b_size: int, n: int) -> float:
    """Expected shared-id count of two i.i.d. uniform views of the given
    sizes over ``n`` ids: ``a·b/n`` (birthday-style first moment).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return view_a_size * view_b_size / n


def mutual_edge_fraction(protocol: GossipProtocol) -> float:
    """Fraction of membership edges ``(u, v)`` whose reverse also exists.

    Mutual edges are the sharpest symptom of reinforcement-with-retention:
    when ``u`` pushes its own id to ``v`` *and keeps* ``v`` in its view,
    the pair ``v ∈ u.lv ∧ u ∈ v.lv`` persists.  Under i.i.d. uniform views
    the expected fraction is ≈ ``E[d]/n``; push and push-pull baselines
    score far above it, S&F only slightly (duplications).
    """
    state = getattr(protocol, "array_state", None)
    if state is not None:
        return _mutual_edge_fraction_array(*state())
    views = {u: protocol.view_of(u) for u in protocol.node_ids()}
    edges = 0
    mutual = 0
    for u, view in views.items():
        for v, multiplicity in view.items():
            if v == u or v not in views:
                continue
            edges += multiplicity
            if views[v].get(u, 0) > 0:
                mutual += multiplicity
    if edges == 0:
        raise ValueError("no membership edges between live nodes")
    return mutual / edges


def _mutual_edge_fraction_array(ids: np.ndarray, node_at: np.ndarray) -> float:
    """Vectorized mutual-edge fraction over an ``(n, s)`` id-matrix.

    Every nonempty slot whose target is live and distinct from its holder
    is one edge instance; an instance is mutual when the reverse directed
    pair occurs anywhere in the matrix.  Pairs are encoded as
    ``src * stride + dst`` scalars so the reverse lookup is one
    ``np.isin`` against the distinct-pair set.
    """
    view_size = ids.shape[1]
    src_ids = np.repeat(node_at, view_size)
    dst_ids = ids.ravel()
    mask = (dst_ids >= 0) & (dst_ids != src_ids) & np.isin(dst_ids, node_at)
    src_e = src_ids[mask]
    # The kernel stores ids as int32; the pair keys need 64 bits.
    dst_e = dst_ids[mask].astype(np.int64)
    if src_e.size == 0:
        raise ValueError("no membership edges between live nodes")
    stride = int(max(node_at.max(), dst_e.max())) + 1
    pair_keys = np.unique(src_e * stride + dst_e)
    mutual = int(np.isin(dst_e * stride + src_e, pair_keys).sum())
    return mutual / src_e.size


#: Edges :func:`neighbor_overlap_fraction` averages over before it stops.
MAX_OVERLAP_PAIRS = 50_000


def neighbor_overlap_fraction(protocol: GossipProtocol) -> float:
    """Average per-edge excess view overlap, normalized by view size.

    For each membership edge ``(u, v)``, counts ids common to ``u``'s and
    ``v``'s views (a symptom of the "gossiped id remains in the sender's
    view" dependence), subtracts the i.i.d. baseline, and averages the
    positive excess divided by the smaller view size.  Zero means views of
    neighbors look independent; protocols that copy ids score high.
    """
    nodes = protocol.node_ids()
    n = len(nodes)
    if n < 2:
        raise ValueError("need at least two nodes")
    views = {u: protocol.view_of(u) for u in nodes}
    live = set(nodes)
    total = 0.0
    pairs = 0
    for u in nodes:
        for v in views[u]:
            if v == u or v not in live:
                continue
            overlap = sum(
                min(count, views[v][node_id])
                for node_id, count in views[u].items()
            )
            # u itself appearing in v's view is trivially correlated with
            # the edge (u, v); exclude that contribution.
            overlap_excl = overlap
            size_u = sum(views[u].values())
            size_v = sum(views[v].values())
            if size_u == 0 or size_v == 0:
                continue
            baseline = expected_iid_overlap(size_u, size_v, n)
            excess = max(0.0, overlap_excl - baseline)
            total += excess / min(size_u, size_v)
            pairs += 1
            if pairs >= MAX_OVERLAP_PAIRS:
                return total / pairs
    if pairs == 0:
        raise ValueError("no membership edges between live nodes")
    return total / pairs
