"""Asynchronous discrete-event engine with overlapping actions.

The paper's motivation for S&F is that its actions need no atomicity:
each *step* executes at a single node, and steps of different actions may
interleave arbitrarily.  This engine realizes that setting: every node
initiates on an independent Poisson clock (loosely synchronized rates, as
assumed in section 4.1), messages take a sampled delay, and receive steps
fire whenever their message arrives — possibly long after the sender has
moved on.

Experiments use it to confirm that S&F's steady-state properties measured
under the serial model persist under full asynchrony.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, List, Optional, Tuple

from repro.engine.sequential import EngineStats
from repro.net.delay import ConstantDelay, DelayModel
from repro.obs import get_telemetry
from repro.net.loss import LossModel, NoLoss
from repro.protocols.base import GossipProtocol, Message, SendEffect
from repro.util.rng import BlockDraws, SeedLike, make_rng

NodeId = int


class DiscreteEventEngine:
    """Event-driven simulation of a gossip protocol.

    Args:
        protocol: the protocol instance.
        loss: message-loss model (default lossless).
        delay: message-delay model (default constant 1.0 — so actions
            systematically overlap: many messages are in flight at once).
        rate: per-node initiation rate (actions per unit time); the mean
            inter-action gap at a node is ``1/rate``.  Must be positive
            and finite.
        seed: RNG seed.

    Every draw — clock gaps, loss coins, delays, both protocol steps —
    comes off ``draws``, one :class:`~repro.util.rng.BlockDraws` over the
    seeded ``rng``, in call order.
    """

    def __init__(
        self,
        protocol: GossipProtocol,
        loss: Optional[LossModel] = None,
        delay: Optional[DelayModel] = None,
        rate: float = 1.0,
        seed: SeedLike = None,
    ):
        if not (0 < rate < math.inf):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.protocol = protocol
        self.loss = loss if loss is not None else NoLoss()
        self.delay = delay if delay is not None else ConstantDelay(1.0)
        self.rate = rate
        self.rng = make_rng(seed)
        self.draws = BlockDraws(self.rng)
        self.now = 0.0
        self.stats = EngineStats()
        self.messages_in_flight = 0
        self.max_in_flight = 0
        # Entries are ``(time, sequence, node, effect)``: ``effect`` is
        # ``None`` for a clock tick at ``node``, else the ``SendEffect``
        # delivered at ``time`` to ``node``.  ``(time, sequence)`` is unique
        # and every time is finite, so ``heapq`` orders entries by comparing
        # two numbers in C and never reaches ``node`` or ``effect``.
        self._queue: List[Tuple[float, int, NodeId, Optional[SendEffect]]] = []
        self._sequence = itertools.count()
        # Sequence number of each node's one live clock tick.
        self._armed: Dict[NodeId, int] = {}
        for node in protocol.node_ids():
            self._schedule_initiate(node)

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------

    def _schedule_initiate(self, node: NodeId) -> None:
        """Arm ``node``'s clock; any event armed for it earlier goes stale."""
        gap = self.draws.exponential(1.0 / self.rate)
        sequence = next(self._sequence)
        self._armed[node] = sequence
        heapq.heappush(self._queue, (self.now + gap, sequence, node, None))

    def _schedule_delivery(self, effect: SendEffect) -> None:
        message = effect.message
        latency = self.delay.sample(message.sender, message.target, self.draws)
        heapq.heappush(
            self._queue,
            (self.now + latency, next(self._sequence), message.target, effect),
        )
        self.messages_in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.messages_in_flight)

    def add_node(self, node_id: NodeId, bootstrap_ids) -> None:
        """Join a node and start its initiation clock."""
        self.protocol.add_node(node_id, bootstrap_ids)
        self._schedule_initiate(node_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Process events until simulated time reaches ``end_time``.

        With per-node rate 1, ``end_time`` is comparable to a number of
        rounds of the sequential engine.
        """
        self._run(end_time, math.inf)

    def run_events(self, count: int) -> None:
        """Process exactly ``count`` events (or until the queue drains)."""
        self._run(math.inf, count)

    def _run(self, end_time: float, max_events: float) -> None:
        """Pop and handle events, up to ``max_events`` and no later than ``end_time``."""
        tel = get_telemetry()
        wall0 = time.perf_counter() if tel.active else 0.0
        cpu0 = time.process_time() if tel.active else 0.0
        queue = self._queue
        processed = 0
        while processed < max_events and queue and queue[0][0] <= end_time:
            self.now, sequence, node, effect = heapq.heappop(queue)
            if effect is not None:
                self._handle_delivery(effect.message, effect.reply)
            elif self._armed.get(node) == sequence:
                # Any other clock tick is stale: its id left and rejoined,
                # and runs on the clock armed at the rejoin (rate 1 per
                # node, section 4.1).
                self._handle_initiate(node)
            processed += 1
        if end_time < math.inf:
            self.now = max(self.now, end_time)
        if tel.active:
            wall = time.perf_counter() - wall0
            tel.observe_timer("phase.des_run", wall, time.process_time() - cpu0)
            tel.inc("des.events", processed)
            tel.set_gauge("des.max_in_flight", self.max_in_flight)
            tel.event(
                "des.run",
                events=processed,
                now=round(self.now, 6),
                in_flight=self.messages_in_flight,
                duration_s=round(wall, 6),
            )

    def _handle_initiate(self, node: NodeId) -> None:
        if not self.protocol.has_node(node):
            self._armed.pop(node, None)  # departed node: its clock dies with it
            return
        self.stats.actions += 1
        for effect in self.protocol.initiate_effects(node, self.draws):
            self._route(effect)
        self._schedule_initiate(node)

    def _route(self, effect: SendEffect) -> None:
        message = effect.message
        if effect.reply:
            self.stats.replies_sent += 1
        else:
            self.stats.messages_sent += 1
        if self.loss.is_lost(message.sender, message.target, self.draws):
            if effect.reply:
                self.stats.replies_lost += 1
            else:
                self.stats.messages_lost += 1
            return
        self._schedule_delivery(effect)

    def _handle_delivery(self, message: Message, reply: bool) -> None:
        self.messages_in_flight -= 1
        if not self.protocol.has_node(message.target):
            # Target departed while the message was in flight.  This is the
            # churn channel, not network loss: account it per kind (a reply
            # whose requester has since left must land in
            # ``replies_to_departed``, or conservation double-counts it as
            # loss and loss_fraction() overstates ℓ under churn).
            if reply:
                self.stats.replies_to_departed += 1
            else:
                self.stats.messages_to_departed += 1
            return
        if reply:
            self.stats.replies_delivered += 1
        else:
            self.stats.messages_delivered += 1
        for effect in self.protocol.deliver_effects(message, self.draws):
            self._route(effect)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def rounds_elapsed(self) -> float:
        """Simulated time × rate ≈ expected actions initiated per node."""
        return self.now * self.rate

    def queue_size(self) -> int:
        return len(self._queue)
