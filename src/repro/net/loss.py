"""Message-loss models.

The sender can never detect loss (section 4.1): these models are consulted
by the engine *after* the send step has completed, so a lost message means
the receive step silently never runs — no retransmission, no bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

NodeId = int


class LossModel:
    """Decides, per message, whether it is lost in transit.

    A stateless model defines :meth:`rate_for` and inherits the verdict; a
    stateful one leaves ``rate_for`` at ``None`` and overrides
    :meth:`is_lost`.
    """

    def is_lost(self, sender: NodeId, target: NodeId, rng) -> bool:
        """Return True if the message from ``sender`` to ``target`` is lost.

        The one coin: a rate of 0 never loses and a rate of 1 always does,
        both without touching ``rng``; any rate in between costs exactly
        one ``rng.random()``.
        """
        rate = self.rate_for(sender, target)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return bool(rng.random() < rate)

    def rate_for(self, sender: NodeId, target: NodeId) -> Optional[float]:
        """The deterministic loss rate for this message, if one exists.

        Stateless models return the probability a message from ``sender``
        to ``target`` is lost, letting batch kernels decide loss from a
        pre-drawn uniform (see :func:`repro.kernel.base.decide_loss`).
        Stateful models (whose verdict needs extra randomness or evolves
        per message) return ``None`` and supply their own ``is_lost``.
        """
        return None

    def expected_rate(self) -> float:
        """A nominal overall loss rate, for reporting (may be approximate)."""
        return 0.0

    def reset(self) -> None:
        """Discard any accumulated per-run channel state.

        Stateless models are no-ops.  Stateful models (e.g.
        :class:`GilbertElliottLoss`) must override this so one model
        instance can be reused across replications without leaking state
        — :func:`repro.experiments.common.build_sf_system` calls it for
        every system it assembles.
        """


class UniformLoss(LossModel):
    """The paper's model: i.i.d. loss with probability ``rate`` per message."""

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate

    def rate_for(self, sender: NodeId, target: NodeId) -> float:
        return self.rate

    def expected_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:
        return f"UniformLoss(rate={self.rate})"


class NoLoss(UniformLoss):
    """Lossless network (ℓ = 0) — the classical atomic-action setting."""

    def __init__(self) -> None:
        super().__init__(0.0)

    def __repr__(self) -> str:
        return "NoLoss()"


class GilbertElliottLoss(LossModel):
    """Bursty loss: a two-state (good/bad) Markov channel per sender.

    In the *good* state messages are lost with probability ``good_loss``
    (typically ~0); in the *bad* state with probability ``bad_loss``
    (typically high).  The channel flips state per message with the given
    transition probabilities.  This violates the paper's independence
    assumption and is used by robustness experiments only.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.3,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ):
        for name, value in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._bad_state: Dict[NodeId, bool] = {}

    def is_lost(self, sender: NodeId, target: NodeId, rng) -> bool:
        bad = self._bad_state.get(sender, False)
        # Evolve the channel state first, then sample loss in the new state.
        if bad:
            if rng.random() < self.p_bad_to_good:
                bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                bad = True
        self._bad_state[sender] = bad
        loss_probability = self.bad_loss if bad else self.good_loss
        return bool(rng.random() < loss_probability)

    def expected_rate(self) -> float:
        """Stationary loss rate of the two-state channel."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            return self.good_loss
        stationary_bad = self.p_good_to_bad / denom
        return stationary_bad * self.bad_loss + (1 - stationary_bad) * self.good_loss

    def reset(self) -> None:
        """Return every sender's channel to the good state.

        The per-sender ``_bad_state`` map otherwise accumulates entries
        (and burst state) for the lifetime of the instance — reusing one
        model across replications would correlate runs that are supposed
        to be independent and grow memory with every distinct sender.
        """
        self._bad_state.clear()

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(p_gb={self.p_good_to_bad}, "
            f"p_bg={self.p_bad_to_good}, good={self.good_loss}, bad={self.bad_loss})"
        )


class PartitionLoss(LossModel):
    """A network partition: messages crossing group boundaries are lost.

    While :attr:`active` is True, any message between nodes of different
    groups is lost with probability ``cross_loss`` (1.0 = a clean cut);
    intra-group messages see ``base_loss``; a node ``group_of`` does not
    name is in group 0.  Deactivate to heal the partition.  S&F tolerates
    partitions shorter than the id half-life (Lemma 6.10) because stale
    cross-partition ids are still in views when connectivity returns.
    """

    def __init__(
        self,
        group_of: Dict[NodeId, int],
        cross_loss: float = 1.0,
        base_loss: float = 0.0,
    ):
        if not 0.0 <= cross_loss <= 1.0:
            raise ValueError(f"cross_loss must be in [0, 1], got {cross_loss}")
        if not 0.0 <= base_loss <= 1.0:
            raise ValueError(f"base_loss must be in [0, 1], got {base_loss}")
        self.group_of = dict(group_of)
        self.cross_loss = cross_loss
        self.base_loss = base_loss
        self.active = True

    def heal(self) -> None:
        """End the partition: all traffic sees only ``base_loss``."""
        self.active = False

    def split(self) -> None:
        """(Re)activate the partition."""
        self.active = True

    def rate_for(self, sender: NodeId, target: NodeId) -> float:
        rate = self.base_loss
        if self.active:
            if self.group_of.get(sender, 0) != self.group_of.get(target, 0):
                rate = self.cross_loss
        return rate

    def expected_rate(self) -> float:
        return self.base_loss  # nominal; cross traffic depends on topology

    def __repr__(self) -> str:
        state = "split" if self.active else "healed"
        return (
            f"PartitionLoss({len(set(self.group_of.values()))} groups, "
            f"{state}, cross={self.cross_loss}, base={self.base_loss})"
        )


class TargetedLoss(LossModel):
    """An adversary silencing a victim set: their traffic is dropped.

    Every message to *or* from a node in ``victims`` is lost with
    probability ``victim_loss`` (1.0 = total isolation — the targeted-edge
    adversary of the fault-tolerant rumor-spreading literature, cf. Doerr
    et al. in PAPERS.md); everything else sees ``base_loss``.  Unlike a
    crash, the victims keep *initiating* actions, so their views evolve
    while the rest of the system stops hearing from them — the regime a
    failure detector must not confuse with a clean leave.

    The verdict is a deterministic function of the endpoint pair, so
    :meth:`rate_for` exposes it and batch kernels decide it from the
    pre-drawn uniform (the fused fast path).  The model is stateless;
    :meth:`reset` is a no-op and one instance can be shared across
    replications.  :meth:`retarget` points the adversary at a new victim
    set mid-run (scenario scripting).
    """

    def __init__(self, victims, victim_loss: float = 1.0, base_loss: float = 0.0):
        if not 0.0 <= victim_loss <= 1.0:
            raise ValueError(f"victim_loss must be in [0, 1], got {victim_loss}")
        if not 0.0 <= base_loss <= 1.0:
            raise ValueError(f"base_loss must be in [0, 1], got {base_loss}")
        self.victims = frozenset(int(v) for v in victims)
        self.victim_loss = victim_loss
        self.base_loss = base_loss

    def retarget(self, victims) -> None:
        """Point the adversary at a new victim set."""
        self.victims = frozenset(int(v) for v in victims)

    def rate_for(self, sender: NodeId, target: NodeId) -> float:
        if sender in self.victims or target in self.victims:
            return self.victim_loss
        return self.base_loss

    def expected_rate(self) -> float:
        return self.base_loss  # nominal; victim traffic depends on topology

    def __repr__(self) -> str:
        return (
            f"TargetedLoss({len(self.victims)} victims, "
            f"victim={self.victim_loss}, base={self.base_loss})"
        )


class CorrelatedLoss(LossModel):
    """Round-synchronized burst drops: loss arrives in system-wide waves.

    Messages are counted globally in send order; the counter position
    within a cycle of ``period`` messages decides the regime: the first
    ``burst`` messages of every cycle are lost with probability
    ``burst_loss``, the rest with ``base_loss``.  With ``period`` set to
    roughly the per-round message volume (≈ the population size for
    S&F), every burst hits the whole population within the same round —
    the spatially correlated outage the paper's i.i.d. model excludes.

    The verdict depends on evolving per-message state, so
    :meth:`rate_for` returns ``None`` and kernels route it through the
    in-order ``is_lost`` path (same discipline as
    :class:`GilbertElliottLoss`, and held bit-exact across kernels by the
    same equivalence suite).  :meth:`reset` rewinds the counter so a
    reused instance starts every replication at the cycle origin.
    """

    def __init__(
        self,
        period: int,
        burst: int,
        burst_loss: float = 1.0,
        base_loss: float = 0.0,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0 <= burst <= period:
            raise ValueError(f"burst must be in [0, period], got {burst}")
        if not 0.0 <= burst_loss <= 1.0:
            raise ValueError(f"burst_loss must be in [0, 1], got {burst_loss}")
        if not 0.0 <= base_loss <= 1.0:
            raise ValueError(f"base_loss must be in [0, 1], got {base_loss}")
        self.period = period
        self.burst = burst
        self.burst_loss = burst_loss
        self.base_loss = base_loss
        self._messages = 0

    def is_lost(self, sender: NodeId, target: NodeId, rng) -> bool:
        in_burst = (self._messages % self.period) < self.burst
        self._messages += 1
        rate = self.burst_loss if in_burst else self.base_loss
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return bool(rng.random() < rate)

    def expected_rate(self) -> float:
        fraction = self.burst / self.period
        return fraction * self.burst_loss + (1 - fraction) * self.base_loss

    def reset(self) -> None:
        """Rewind to the cycle origin (per-run burst-phase isolation)."""
        self._messages = 0

    def __repr__(self) -> str:
        return (
            f"CorrelatedLoss(period={self.period}, burst={self.burst}, "
            f"burst_loss={self.burst_loss}, base={self.base_loss})"
        )


class TopologyLoss(LossModel):
    """Topology-constrained gossip: only mask edges can carry messages.

    ``neighbors`` maps each node to the peers it is allowed to reach;
    messages along permitted edges see ``edge_loss``, everything else is
    dropped outright.  This is the constrained-admission regime of Hu &
    Jehl (PAPERS.md): gossip no longer runs over a complete graph, so
    reliability depends on the mask's expansion.  ``symmetric`` (default)
    admits an edge when either endpoint lists the other, matching an
    undirected topology given one-sided adjacency lists.

    Stateless and precomputable per pair (:meth:`rate_for`), so batch
    kernels take the fused path; :meth:`reset` is a no-op.
    """

    def __init__(
        self,
        neighbors: Dict[NodeId, frozenset],
        edge_loss: float = 0.0,
        symmetric: bool = True,
    ):
        if not 0.0 <= edge_loss <= 1.0:
            raise ValueError(f"edge_loss must be in [0, 1], got {edge_loss}")
        self.neighbors = {int(u): frozenset(vs) for u, vs in neighbors.items()}
        self.edge_loss = edge_loss
        self.symmetric = symmetric

    def _admits(self, sender: NodeId, target: NodeId) -> bool:
        if target in self.neighbors.get(sender, frozenset()):
            return True
        if self.symmetric and sender in self.neighbors.get(target, frozenset()):
            return True
        return False

    def rate_for(self, sender: NodeId, target: NodeId) -> float:
        if self._admits(sender, target):
            return self.edge_loss
        return 1.0

    def expected_rate(self) -> float:
        return self.edge_loss  # nominal; off-mask traffic depends on views

    def __repr__(self) -> str:
        edges = sum(len(vs) for vs in self.neighbors.values())
        return (
            f"TopologyLoss({len(self.neighbors)} nodes, {edges} adjacency "
            f"entries, edge_loss={self.edge_loss})"
        )


class PerLinkLoss(LossModel):
    """Heterogeneous loss: a fixed rate per (sender, target) pair.

    Pairs not in ``rates`` use ``default_rate``.  Models persistently lossy
    links (e.g. a badly connected region), a nonuniform regime the paper
    explicitly leaves out of scope (§4.1) but which the robustness benches
    exercise.
    """

    def __init__(self, rates: Dict[Tuple[NodeId, NodeId], float], default_rate: float = 0.0):
        for pair, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"loss rate for {pair} must be in [0, 1], got {rate}")
        if not 0.0 <= default_rate <= 1.0:
            raise ValueError(f"default_rate must be in [0, 1], got {default_rate}")
        self.rates = dict(rates)
        self.default_rate = default_rate

    def rate_for(self, sender: NodeId, target: NodeId) -> float:
        return self.rates.get((sender, target), self.default_rate)

    def expected_rate(self) -> float:
        if not self.rates:
            return self.default_rate
        return sum(self.rates.values()) / len(self.rates)

    def __repr__(self) -> str:
        return f"PerLinkLoss({len(self.rates)} links, default={self.default_rate})"
