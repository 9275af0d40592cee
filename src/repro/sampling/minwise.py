"""Brahms-style min-wise membership samplers (the paper's ref [7]).

Section 3.1 contrasts S&F's *evolving* views with Brahms' approach of
complementing fast-evolving (possibly nonuniform) views with separate
*samplers* that converge to uniform ids — but "do not provide temporal
independence, as they are designed to persist rather than evolve."

A min-wise sampler holds, per slot, an independent random hash function
and remembers the id minimizing it among everything the gossip stream has
ever shown it.  Once the stream has covered the population, each slot is
a uniform sample (the argmin of i.i.d. hashes), but it then (almost)
never changes — the persistence the paper points out.

:class:`SamplerLayer` wraps any :class:`~repro.protocols.base.GossipProtocol`
and feeds every delivered id through each node's sampler bank, so the
samplers consume exactly the gossip traffic the membership layer already
generates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.protocols.base import GossipProtocol, Message, ProtocolWrapper, SendEffect
from repro.util.rng import SeedLike, make_rng

NodeId = int

_MERSENNE_PRIME = (1 << 61) - 1


class MinWiseSampler:
    """One sampler slot: argmin of a random linear hash over observed ids."""

    def __init__(self, rng):
        self._a = int(rng.integers(1, _MERSENNE_PRIME))
        self._b = int(rng.integers(0, _MERSENNE_PRIME))
        self._best_id: Optional[NodeId] = None
        self._best_hash: Optional[int] = None
        self.changes = 0

    def _hash(self, node_id: NodeId) -> int:
        return (self._a * (node_id + 1) + self._b) % _MERSENNE_PRIME

    def observe(self, node_id: NodeId) -> None:
        """Feed one id from the gossip stream."""
        value = self._hash(node_id)
        if self._best_hash is None or value < self._best_hash:
            if self._best_id is not None and self._best_id != node_id:
                self.changes += 1
            self._best_hash = value
            self._best_id = node_id

    def invalidate(self, node_id: NodeId) -> None:
        """Forget the current sample if it equals ``node_id``.

        Brahms uses this on failure suspicion; without it a departed
        node's id persists in samplers forever.
        """
        if self._best_id == node_id:
            self._best_id = None
            self._best_hash = None

    @property
    def sample(self) -> Optional[NodeId]:
        return self._best_id


class SamplerBank:
    """A node's array of independent sampler slots."""

    def __init__(self, slots: int, rng):
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        self._samplers = [MinWiseSampler(rng) for _ in range(slots)]

    def observe(self, node_id: NodeId) -> None:
        for sampler in self._samplers:
            sampler.observe(node_id)

    def invalidate(self, node_id: NodeId) -> None:
        for sampler in self._samplers:
            sampler.invalidate(node_id)

    def samples(self) -> List[Optional[NodeId]]:
        return [sampler.sample for sampler in self._samplers]

    def total_changes(self) -> int:
        return sum(sampler.changes for sampler in self._samplers)

    def __len__(self) -> int:
        return len(self._samplers)


class SamplerLayer(ProtocolWrapper):
    """Wrap a membership protocol, feeding samplers from delivered traffic.

    Every id arriving in a delivered message (including the sender's own
    id) is observed by the *target's* sampler bank — the same information
    flow Brahms taps.  All membership behavior delegates to the wrapped
    protocol unchanged.
    """

    def __init__(self, inner: GossipProtocol, slots: int = 8, seed: SeedLike = None):
        super().__init__(inner)
        self.slots = slots
        self._rng = make_rng(seed)
        self._banks: Dict[NodeId, SamplerBank] = {
            u: SamplerBank(slots, self._rng) for u in inner.node_ids()
        }

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        super().add_node(node_id, bootstrap_ids)
        self._banks[node_id] = SamplerBank(self.slots, self._rng)

    def remove_node(self, node_id: NodeId) -> None:
        super().remove_node(node_id)
        self._banks.pop(node_id, None)

    def deliver_effects(self, message: Message, rng) -> Tuple[SendEffect, ...]:
        bank = self._banks.get(message.target)
        if bank is not None and self.inner.has_node(message.target):
            for node_id, _ in message.payload:
                if node_id != message.target:
                    bank.observe(node_id)
        return super().deliver_effects(message, rng)

    # -- sampler access ----------------------------------------------------

    def bank(self, node_id: NodeId) -> SamplerBank:
        return self._banks[node_id]

    def samples_of(self, node_id: NodeId) -> List[Optional[NodeId]]:
        return self._banks[node_id].samples()

    def all_samples(self) -> List[NodeId]:
        collected: List[NodeId] = []
        for bank in self._banks.values():
            collected.extend(s for s in bank.samples() if s is not None)
        return collected

    def invalidate_everywhere(self, node_id: NodeId) -> None:
        """Propagate a failure suspicion to every bank."""
        for bank in self._banks.values():
            bank.invalidate(node_id)
