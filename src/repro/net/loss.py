"""Message-loss models.

The sender can never detect loss (section 4.1): these models are consulted
by the engine *after* the send step has completed, so a lost message means
the receive step silently never runs — no retransmission, no bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Optional

NodeId = int


class LossModel:
    """Decides, per message, whether it is lost in transit.

    A stateless model defines :meth:`rate_for` and inherits the verdict; a
    stateful one leaves ``rate_for`` at ``None`` and overrides
    :meth:`is_lost`.  Every model runs on a protocol (``SendForget`` on
    either engine); simulation kernels take :class:`UniformLoss` only.
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
        to ``target`` is lost, and :meth:`is_lost` flips one coin on it.
        Stateful models (whose verdict needs extra randomness or evolves
        per message) return ``None`` and supply their own ``is_lost``.
        No batch kernel reads this: kernels run :class:`UniformLoss` only.
        """
        return None


class UniformLoss(LossModel):
    """The paper's model: i.i.d. loss with probability ``rate`` per message."""

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate

    def rate_for(self, sender: NodeId, target: NodeId) -> float:
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

    def __repr__(self) -> str:
        state = "split" if self.active else "healed"
        return (
            f"PartitionLoss({len(set(self.group_of.values()))} groups, "
            f"{state}, cross={self.cross_loss}, base={self.base_loss})"
        )
