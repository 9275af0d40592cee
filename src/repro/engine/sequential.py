"""The sequential action engine — the paper's analysis model (section 5).

"In our analysis, we assume that a central entity repeatedly selects a
random node, invokes its S&F-InitiateAction method, and waits for the
completion of S&F-Receive by the receiving node (in case a message was
sent)."  This engine does exactly that, with the loss model deciding
whether the receive step ever runs.

A *round* (section 6.5) is the period during which each node is expected
to initiate exactly one action, i.e. ``n`` scheduler picks.

The engine drives either a :class:`repro.protocols.base.GossipProtocol`
(one initiate step plus its receive steps per action, any protocol) or a
:class:`repro.kernel.base.SimulationKernel` (S&F state mutation delegated
to the kernel a batch at a time).  Both run through one loop —
:meth:`SequentialEngine.run_actions` cuts the work into batches that end
on round-hook boundaries and :meth:`SequentialEngine._run_batch` executes
one — so rounds, hooks, and statistics behave the same either way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.kernel.base import SimulationKernel, uniform_rate
from repro.obs import get_telemetry
from repro.net.loss import LossModel
from repro.net.transport import LoopbackTransport
from repro.protocols.base import GossipProtocol, SendEffect
from repro.util.rng import BlockDraws, SeedLike, make_rng

NodeId = int
SnapshotHook = Callable[["SequentialEngine", int], None]

#: Upper bound on one batch, so hook-free kernel runs still draw their
#: randomness in bounded blocks.
MAX_BATCH_ACTIONS = 16384


@dataclass
class EngineStats:
    """Transport-level counters (the protocol keeps its own in ``stats``).

    ``messages_to_departed`` counts messages that reached the network but
    evaporated because the target had left — the paper's leave model makes
    that indistinguishable from loss *for the sender*, but it is not
    network loss, so :meth:`loss_fraction` excludes it (churn experiments
    would otherwise overstate ℓ).
    """

    actions: int = 0
    messages_sent: int = 0
    messages_lost: int = 0
    messages_to_departed: int = 0
    messages_delivered: int = 0
    replies_sent: int = 0
    replies_lost: int = 0
    replies_to_departed: int = 0
    replies_delivered: int = 0

    def check_conservation(self) -> None:
        """Assert that every send is accounted for, kind by kind.

        ``sent == delivered + lost + to_departed`` must hold exactly for
        messages and for replies — the transport loses nothing silently.
        Property-tested across all backends and loss models in
        ``tests/test_engine_stats_invariant.py``.
        """
        if self.messages_sent != (
            self.messages_delivered + self.messages_lost + self.messages_to_departed
        ):
            raise AssertionError(f"message counters do not balance: {self}")
        if self.replies_sent != (
            self.replies_delivered + self.replies_lost + self.replies_to_departed
        ):
            raise AssertionError(f"reply counters do not balance: {self}")

    def loss_fraction(self) -> float:
        """Fraction of sends lost *in the network* (excludes departures)."""
        total = self.messages_sent + self.replies_sent
        if total == 0:
            return 0.0
        return (self.messages_lost + self.replies_lost) / total


@dataclass
class _Hook:
    every_rounds: int
    callback: SnapshotHook
    next_round: int = field(default=0)


class SequentialEngine:
    """Drives a protocol or kernel under the serial scheduling model.

    Args:
        protocol: the protocol instance (owns all node state), or a
            :class:`~repro.kernel.base.SimulationKernel` backend to which
            all state mutation is delegated in batches.
        loss: message-loss model; defaults to a lossless network.  A
            kernel takes :class:`~repro.net.loss.UniformLoss` only.
        seed: RNG seed (or an existing generator) for full reproducibility.

    ``rng`` is the seeded generator; a kernel draws its batches from it
    (:func:`~repro.kernel.base.draw_action_block`).  A protocol's every
    draw — the scheduler pick, both steps, the loss coin — comes off
    ``draws``, a :class:`~repro.util.rng.BlockDraws` over ``rng``, in
    call order; it draws nothing until its first call, so a kernel run
    never touches it.
    """

    def __init__(
        self,
        protocol: GossipProtocol,
        loss: Optional[LossModel] = None,
        seed: SeedLike = None,
    ):
        self.protocol = protocol
        self.kernel: Optional[SimulationKernel] = (
            protocol if isinstance(protocol, SimulationKernel) else None
        )
        # The engine's channel: loss is applied at the send seam, surviving
        # effects are drained FIFO by _pump (kernel backends bypass the
        # transport and read the model through ``loss`` inside run_batch).
        self.transport = LoopbackTransport(loss)
        if self.kernel is not None:
            uniform_rate(self.loss)
        self.rng = make_rng(seed)
        self.draws = BlockDraws(self.rng)
        self.stats = EngineStats()
        self.rounds_completed = 0.0
        self._hooks: List[_Hook] = []
        # Last integer round for which an ``engine.round`` trace record was
        # emitted (telemetry only; never consulted when tracing is off).
        self._trace_round = 0
        # Per-node load on the protocol path; kernel backends keep their own.
        self._load: Dict[str, Dict[NodeId, int]] = {"sent": {}, "received": {}}

    @property
    def loss(self) -> LossModel:
        """The loss model, fixed at construction; the transport holds it."""
        return self.transport.loss

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One scheduler pick: a uniformly random node initiates an action."""
        self._run_batch(1)

    def step_node(self, initiator: NodeId) -> None:
        """Run one complete action initiated by ``initiator``.

        The protocol is driven purely through its two steps: the initiate
        step's effects enter the transport, and :meth:`_pump` runs every
        resulting receive step (and routes any reply effects) until the
        channel is empty — the serial model's "wait for completion".
        """
        if self.kernel is not None:
            raise NotImplementedError(
                "kernel backends schedule initiators internally; use step()"
            )
        self.stats.actions += 1
        for effect in self.protocol.initiate_effects(initiator, self.draws):
            self._dispatch(effect)
        self._pump()

    def _dispatch(self, effect: SendEffect) -> None:
        """Account one outbound effect and offer it to the transport."""
        message = effect.message
        if effect.reply:
            self.stats.replies_sent += 1
        else:
            self.stats.messages_sent += 1
        sent = self._load["sent"]
        sent[message.sender] = sent.get(message.sender, 0) + 1
        if not self.transport.send(effect, self.draws):
            if effect.reply:
                self.stats.replies_lost += 1
            else:
                self.stats.messages_lost += 1

    def _pump(self) -> None:
        """Deliver queued effects in FIFO order until the channel drains.

        FIFO matches the pre-seam recursion's RNG draw order exactly
        (request receive draws, then reply loss draw, then reply receive
        draws), which is what keeps seeded runs bit-identical.
        """
        received = self._load["received"]
        while True:
            effect = self.transport.poll()
            if effect is None:
                return
            message = effect.message
            if not self.protocol.has_node(message.target):
                # Departed target: message evaporates (the sender cannot
                # tell).  Not network loss — tracked separately so
                # loss_fraction() reflects ℓ alone even under churn.
                if effect.reply:
                    self.stats.replies_to_departed += 1
                else:
                    self.stats.messages_to_departed += 1
                continue
            if effect.reply:
                self.stats.replies_delivered += 1
            else:
                self.stats.messages_delivered += 1
            received[message.target] = received.get(message.target, 0) + 1
            for produced in self.protocol.deliver_effects(message, self.draws):
                self._dispatch(produced)

    def load_counts(self, kind: str) -> Dict[NodeId, int]:
        """Messages each node has ``sent`` or ``received`` since the last reset.

        §2 motivates load balance (Property M2) by "the number of messages
        received by a node is proportional to the number of its
        in-neighbors"; this snapshot lets experiments verify that
        operational reading directly.  Nodes with a zero count are omitted.
        """
        if self.kernel is not None:
            return self.kernel.load_counts(kind)
        return dict(self._load[kind])

    def reset_load_counts(self) -> None:
        """Zero both counters (e.g. at the end of a warm-up)."""
        for kind, counts in self._load.items():
            if self.kernel is not None:
                self.kernel.reset_load_counts(kind)
            counts.clear()

    def _next_batch_size(self, limit: int) -> int:
        """``limit`` actions, or fewer if a hook boundary comes first."""
        population = max(self.protocol.population, 1)
        for hook in self._hooks:
            to_boundary = (hook.next_round - 1e-9 - self.rounds_completed) * population
            limit = min(limit, max(1, math.ceil(to_boundary)))
        return limit

    def _run_batch(self, batch: int) -> None:
        """Run ``batch`` scheduler picks and advance the round clock.

        The only place the two backends differ: a kernel takes the whole
        batch in one call; a protocol takes it one pick at a time.
        """
        tel = get_telemetry()
        wall0 = time.perf_counter() if tel.active else 0.0
        cpu0 = time.process_time() if tel.active else 0.0
        if self.kernel is not None:
            self.kernel.run_batch(batch, self.rng, self.loss, self.stats)
            self.rounds_completed += batch / max(self.kernel.population, 1)
        else:
            protocol = self.protocol
            pick = self.draws.integers
            for _ in range(batch):
                members = protocol.members
                if not members:
                    raise RuntimeError("no live nodes to schedule")
                self.step_node(members[pick(len(members))])
                # Accumulated per action, not per batch: the float sum
                # decides on which action a run_rounds segment ends.
                self.rounds_completed += 1.0 / len(members)
        if tel.active:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            tel.inc("engine.actions", batch)
            if self.kernel is not None:
                tel.observe_timer("phase.kernel_batch", wall, cpu)
                tel.inc("engine.batches")
                tel.event(
                    "engine.batch", actions=batch, duration_s=round(wall, 6)
                )
            else:
                tel.observe_timer("phase.engine_run", wall, cpu)

    def _emit_round_records(self, tel) -> None:
        """One ``engine.round`` trace record per newly completed round."""
        current = int(self.rounds_completed + 1e-9)
        while self._trace_round < current:
            self._trace_round += 1
            tel.event(
                "engine.round",
                round=self._trace_round,
                actions=self.stats.actions,
                messages_sent=self.stats.messages_sent,
                messages_delivered=self.stats.messages_delivered,
                messages_lost=self.stats.messages_lost,
            )

    def run_actions(self, count: int) -> None:
        """Run ``count`` scheduler picks, firing any registered hooks."""
        if not 0 <= count < math.inf:
            raise ValueError(f"count must be finite and nonnegative, got {count}")
        tel = get_telemetry()
        remaining = count
        while remaining > 0:
            batch = self._next_batch_size(min(remaining, MAX_BATCH_ACTIONS))
            self._run_batch(batch)
            if tel.tracing_on:
                self._emit_round_records(tel)
            self._fire_hooks()
            remaining -= batch

    def run_rounds(self, rounds: float) -> None:
        """Run until ``rounds`` more rounds have elapsed.

        One round = ``n`` actions at the current population size, tracked
        incrementally so the definition stays correct under churn.
        """
        if not 0 <= rounds < math.inf:
            raise ValueError(f"rounds must be finite and nonnegative, got {rounds}")
        target = self.rounds_completed + rounds
        while self.rounds_completed < target - 1e-12:
            population = max(self.protocol.population, 1)
            needed = math.ceil((target - 1e-12 - self.rounds_completed) * population)
            # Stop at the next hook: it may change the population, and with
            # it the number of actions the rest of the rounds take.
            self.run_actions(self._next_batch_size(max(1, needed)))

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def add_round_hook(self, every_rounds: int, callback: SnapshotHook) -> None:
        """Invoke ``callback(engine, round_number)`` every ``every_rounds`` rounds."""
        if every_rounds <= 0:
            raise ValueError(f"every_rounds must be positive, got {every_rounds}")
        self._hooks.append(
            _Hook(every_rounds=every_rounds, callback=callback, next_round=every_rounds)
        )

    def _fire_hooks(self) -> None:
        # The 1e-9 slack absorbs floating-point drift in the 1/n round
        # accumulation (n actions of 1/n can sum to fractionally under 1).
        for hook in self._hooks:
            while self.rounds_completed >= hook.next_round - 1e-9:
                hook.callback(self, hook.next_round)
                hook.next_round += hook.every_rounds
