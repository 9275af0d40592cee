"""Join/leave processes driving a live protocol instance.

Section 5's join rule: "A joining node has to know at least dL ids of live
nodes before engaging in the protocol.  A node can obtain these ids by
copying another node's view."  Section 6.5 assumes joiners start with the
minimal outdegree ``dL`` and indegree 0; :func:`bootstrap_from_peer`
implements exactly that (an even-size sample of a random live peer's view).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.protocols.base import GossipProtocol
from repro.util.rng import SeedLike, make_rng

NodeId = int


def bootstrap_from_peer(
    protocol: GossipProtocol,
    joiner: NodeId,
    size: int,
    rng,
    peer: Optional[NodeId] = None,
) -> List[NodeId]:
    """Sample ``size`` bootstrap ids for ``joiner`` from a live peer's view.

    Ids equal to the joiner are skipped.  If the peer's view is too small
    the peer's own id pads the sample (it is certainly live).  ``size``
    must be even to satisfy Observation 5.1.
    """
    if size < 0 or size % 2 != 0:
        raise ValueError(f"bootstrap size must be even and nonnegative, got {size}")
    live = [u for u in protocol.node_ids() if u != joiner]
    if not live:
        raise ValueError("no live peers to bootstrap from")
    if peer is None:
        peer = live[int(rng.integers(len(live)))]
    pool = [v for v in protocol.view_of(peer).elements() if v != joiner]
    ids: List[NodeId] = []
    while len(ids) < size:
        if pool:
            index = int(rng.integers(len(pool)))
            ids.append(pool.pop(index))
        else:
            ids.append(peer)
    return ids


class ChurnProcess:
    """Poisson-style churn applied between rounds of a sequential engine.

    Args:
        protocol: the live protocol.
        join_rate: expected joins per round.
        leave_rate: expected leaves per round.
        bootstrap_size: joiner view size (even; defaults to the protocol's
            ``d_low`` when it has one, else 2).
        min_population: leaves are suppressed below this population.
        seed: RNG seed.

    The process allocates fresh monotonically increasing node ids.
    """

    def __init__(
        self,
        protocol: GossipProtocol,
        join_rate: float,
        leave_rate: float,
        bootstrap_size: Optional[int] = None,
        min_population: int = 8,
        seed: SeedLike = None,
    ):
        if not (0 <= join_rate < math.inf and 0 <= leave_rate < math.inf):
            raise ValueError(
                f"rates must be finite and nonnegative, got {join_rate}, {leave_rate}"
            )
        self.protocol = protocol
        self.join_rate = join_rate
        self.leave_rate = leave_rate
        if bootstrap_size is None:
            d_low = getattr(getattr(protocol, "params", None), "d_low", 0)
            bootstrap_size = max(2, d_low)
        if bootstrap_size % 2 != 0:
            bootstrap_size += 1
        self.bootstrap_size = bootstrap_size
        self.min_population = min_population
        self.rng = make_rng(seed)
        existing = protocol.node_ids()
        self._next_id = (max(existing) + 1) if existing else 0
        self.joined: List[NodeId] = []
        self.left: List[NodeId] = []

    def apply_round(self) -> None:
        """Apply one round's worth of churn (Poisson counts of each kind)."""
        joins = int(self.rng.poisson(self.join_rate))
        leaves = int(self.rng.poisson(self.leave_rate))
        for _ in range(joins):
            self.join_one()
        for _ in range(leaves):
            self.leave_one()

    def join_one(self) -> NodeId:
        """Join one fresh node bootstrapped from a random live peer."""
        joiner = self._next_id
        self._next_id += 1
        ids = bootstrap_from_peer(
            self.protocol, joiner, self.bootstrap_size, self.rng
        )
        self.protocol.add_node(joiner, ids)
        self.joined.append(joiner)
        return joiner

    def leave_one(self) -> Optional[NodeId]:
        """Crash a uniformly random live node (None below min population).

        The pick comes from the protocol's own live list and is removed
        exactly once — a departed node must never be removed (or counted)
        twice, or engine departure accounting (``messages_to_departed``)
        and the ``left`` history drift apart from reality.  The guard
        protects against a protocol whose ``node_ids`` went stale under
        a concurrent wrapper.
        """
        live = self.protocol.members
        if len(live) <= self.min_population:
            return None
        victim = live[int(self.rng.integers(len(live)))]
        if not self.protocol.has_node(victim):
            return None
        self.protocol.remove_node(victim)
        self.left.append(victim)
        return victim
