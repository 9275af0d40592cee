"""The object-per-node kernel: ``SendForget`` views driven in batches.

This is the paper-faithful implementation — every view is a
:class:`repro.core.view.View` with its free-list machinery, every action
funnels through :meth:`repro.core.sandf.SendForget.initiate_at` and
:meth:`~repro.core.sandf.SendForget.deliver_ranked` — executed under the
kernel layer's canonical draw discipline (:mod:`repro.kernel.base`).  It
is the ground truth the vectorized :class:`repro.kernel.array.ArrayKernel`
is verified against, and the baseline the kernel benchmarks measure.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.kernel.base import (
    NodeId,
    SimulationKernel,
    ViewSlots,
    draw_action_block,
    uniform_rate,
)
from repro.net.loss import LossModel
from repro.obs import get_telemetry


class ReferenceKernel(SimulationKernel):
    """Batch-drives a :class:`SendForget` population one action at a time."""

    def __init__(self, params: SFParams):
        super().__init__(params)
        self.protocol = SendForget(params)
        self.stats = self.protocol.stats  # single source of protocol counters
        self._order: List[NodeId] = []
        self._order_pos: Dict[NodeId, int] = {}
        self._sent: Dict[NodeId, int] = {}
        self._received: Dict[NodeId, int] = {}

    # -- population management --------------------------------------------

    @property
    def population(self) -> int:
        return len(self._order)

    def node_ids(self) -> List[NodeId]:
        return list(self._order)

    def has_node(self, node_id: NodeId) -> bool:
        return self.protocol.has_node(node_id)

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        self.protocol.add_node(node_id, bootstrap_ids)
        self._order_pos[node_id] = len(self._order)
        self._order.append(node_id)

    def remove_node(self, node_id: NodeId) -> None:
        self.protocol.remove_node(node_id)
        pos = self._order_pos.pop(node_id)
        last = self._order.pop()
        if last != node_id:
            self._order[pos] = last
            self._order_pos[last] = pos
        # Departed nodes drop out of the load counters (the array kernel
        # reuses their row, so this keeps load_counts() comparable).
        self._sent.pop(node_id, None)
        self._received.pop(node_id, None)

    # -- execution ---------------------------------------------------------

    def run_batch(self, count: int, rng, loss: LossModel, engine_stats) -> None:
        rate = uniform_rate(loss)
        population = len(self._order)
        if population == 0:
            raise RuntimeError("no live nodes to schedule")
        if count <= 0:
            return
        tel = get_telemetry()
        if tel.metrics_on:
            tel.inc("kernel.reference.batches")
            tel.inc("kernel.reference.actions", count)
        draws = draw_action_block(rng, count, population, self.params.view_size)
        protocol = self.protocol
        order = self._order
        engine_stats.actions += count
        for k in range(count):
            sender = order[draws.initiators[k]]
            message = protocol.initiate_at(
                sender, int(draws.slot_i[k]), int(draws.slot_j[k])
            )
            if message is None:
                continue
            engine_stats.messages_sent += 1
            self._sent[sender] = self._sent.get(sender, 0) + 1
            if float(draws.loss_u[k]) < rate:
                engine_stats.messages_lost += 1
                continue
            if not protocol.has_node(message.target):
                engine_stats.messages_to_departed += 1
                continue
            engine_stats.messages_delivered += 1
            self._received[message.target] = self._received.get(message.target, 0) + 1
            protocol.deliver_ranked(message, draws.store_u[k])

    # -- observation -------------------------------------------------------

    def view_of(self, node_id: NodeId) -> Counter:
        return self.protocol.view_of(node_id)

    def view_slots(self, node_id: NodeId) -> ViewSlots:
        return self.protocol.raw_view(node_id).slots()

    def outdegree(self, node_id: NodeId) -> int:
        return self.protocol.outdegree(node_id)

    def dependent_fraction(self) -> float:
        return self.protocol.dependent_fraction()

    def check_invariant(self) -> None:
        self.protocol.check_invariant()
        if sorted(self._order) != sorted(self.protocol.node_ids()):
            raise AssertionError("canonical ordering out of sync with population")

    def load_counts(self, kind: str) -> Dict[NodeId, int]:
        return dict(self._sent if kind == "sent" else self._received)

    def reset_load_counts(self, kind: str) -> None:
        (self._sent if kind == "sent" else self._received).clear()
