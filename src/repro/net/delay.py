"""Message-delay models for the discrete-event engine.

The paper's analysis serializes actions; the discrete-event engine uses
these delay models to let actions overlap in time, demonstrating that S&F
needs no atomicity (its design rationale in section 5).
"""

from __future__ import annotations

import abc
import math

NodeId = int


class DelayModel(abc.ABC):
    """Samples an in-flight latency for each message.

    Every parameter of the models below must be finite: a NaN arrival time
    stalls the discrete-event queue once it reaches the head, and an
    infinite one is a message that never arrives yet is never counted lost.
    """

    @abc.abstractmethod
    def sample(self, sender: NodeId, target: NodeId, rng) -> float:
        """Return a nonnegative delay for a message from sender to target."""


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0):
        if not (0 <= delay < math.inf):
            raise ValueError(f"delay must be nonnegative and finite, got {delay}")
        self.delay = delay

    def sample(self, sender: NodeId, target: NodeId, rng) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantDelay({self.delay})"


class ExponentialDelay(DelayModel):
    """Memoryless latency with the given mean — heavy overlap of actions."""

    def __init__(self, mean: float = 1.0):
        if not (0 < mean < math.inf):
            raise ValueError(f"mean must be positive and finite, got {mean}")
        self.mean = mean

    def sample(self, sender: NodeId, target: NodeId, rng) -> float:
        return float(rng.exponential(self.mean))

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self.mean})"


class UniformDelay(DelayModel):
    """Latency uniform in ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5):
        if not (0 <= low <= high < math.inf):
            raise ValueError(f"need 0 <= low <= high < inf, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, sender: NodeId, target: NodeId, rng) -> float:
        # numpy's own formula for ``uniform(low, high)``, on one ``random()``.
        return self.low + (self.high - self.low) * rng.random()

    def __repr__(self) -> str:
        return f"UniformDelay([{self.low}, {self.high}])"
