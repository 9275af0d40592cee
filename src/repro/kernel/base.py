"""The pluggable simulation-kernel layer.

A :class:`SimulationKernel` owns the *entire* population state of an S&F
deployment and executes scheduler picks in batches.  Two implementations
exist:

* :class:`repro.kernel.reference.ReferenceKernel` — the paper-faithful
  object-per-node implementation (``SendForget`` over ``View`` objects),
  executed one action at a time;
* :class:`repro.kernel.array.ArrayKernel` — all views in a single
  ``(n, s)`` numpy id-matrix plus a dependence bitmask, executing
  conflict-free groups of actions as masked array operations.

Both kernels consume randomness through the **canonical draw discipline**
defined here (:func:`draw_action_block`): for a batch of ``B`` actions the
kernel draws six fixed-size blocks from the engine's generator
(``engine.rng``, never the engine's per-pick ``draws``), in a fixed
order, *regardless* of how individual actions branch.  Because the layout
is state-independent, two kernels driven by equal-seeded generators with
the same batch schedule consume identical random numbers — and therefore
must produce bit-identical views, statistics, and invariants.  That is the
equivalence guarantee ``tests/test_kernel_equivalence.py`` enforces.

Canonical conventions shared by every kernel:

* **Node ordering** — nodes are ordered by insertion; removal swap-moves
  the last node into the vacated position.  The scheduler pick ``r``
  selects the ``r``-th node of this ordering.
* **Empty-slot ranking** — a received id is stored into the ``k``-th
  *lowest-indexed* empty slot, with ``k`` derived from a pre-drawn uniform
  via :func:`rank_from_uniform`.  (The per-action object path instead
  draws a position in the ``View`` free list, one draw at a time off the
  engine's :class:`~repro.util.rng.BlockDraws`, which maps a uniform
  ``u`` to ``int(u * k)`` like :func:`rank_from_uniform`; the two
  disciplines are distributionally identical but consume the stream in
  a different order.)
* **Loss decisions** — kernels run the paper's model only, uniform
  i.i.d. loss (§4.1): a message is lost iff its pre-drawn uniform is
  below the rate (:func:`uniform_rate`).  Other models run on
  ``SendForget`` (``backend="reference"``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import SFParams
from repro.net.loss import LossModel, UniformLoss
from repro.protocols.base import Population, ProtocolStats

NodeId = int

#: Slot-exact snapshot of one view: ``None`` for ⊥, else ``(id, dependent)``.
ViewSlots = Tuple[Optional[Tuple[NodeId, bool]], ...]


@dataclass
class ActionDraws:
    """Pre-drawn randomness for a batch of actions (one row per action)."""

    initiators: np.ndarray  # position in the canonical node ordering
    slot_i: np.ndarray      # first selected slot
    slot_j: np.ndarray      # second selected slot (already offset, ≠ slot_i)
    loss_u: np.ndarray      # uniform for the loss decision
    store_u: np.ndarray     # (B, 2) uniforms for the two empty-slot ranks

    def __len__(self) -> int:
        return len(self.initiators)


def draw_action_block(rng, count: int, population: int, view_size: int) -> ActionDraws:
    """Draw the canonical randomness block for ``count`` actions.

    The layout is fixed: every action consumes one initiator pick, two
    slot picks, one loss uniform, and two store uniforms, whether or not
    its branch ends up using them.  Unused draws are simply discarded —
    the price of a state-independent layout that both kernels can share.
    """
    initiators = rng.integers(0, population, size=count)
    slot_i = rng.integers(0, view_size, size=count)
    slot_j = rng.integers(0, view_size - 1, size=count)
    slot_j = slot_j + (slot_j >= slot_i)
    loss_u = rng.random(count)
    store_u = rng.random((count, 2))
    return ActionDraws(initiators, slot_i, slot_j, loss_u, store_u)


def rank_from_uniform(u: float, count: int) -> int:
    """Map a uniform in ``[0, 1)`` to a rank in ``[0, count)``."""
    return min(int(u * count), count - 1)


def uniform_rate(loss: LossModel) -> float:
    """The i.i.d. rate a kernel decides every message with; any model
    but :class:`~repro.net.loss.UniformLoss` (``NoLoss`` is one) is a
    ``TypeError``."""
    if not isinstance(loss, UniformLoss):
        raise TypeError(
            f"simulation kernels run uniform i.i.d. loss only, got {loss!r}; "
            'run other loss models on SendForget (backend="reference")'
        )
    return loss.rate


class SimulationKernel(Population):
    """Owns population state and executes batches of S&F actions.

    The kernel exposes the same observation surface as
    :class:`repro.core.sandf.SendForget` (``node_ids``, ``view_of``,
    ``outdegree``, ``dependent_fraction``, ``check_invariant``, ``stats``,
    and — through the shared :class:`~repro.protocols.base.Population`
    base — ``indegrees`` and ``export_graph``), so experiment and metrics
    code written against the protocol object runs unchanged on any
    backend.
    """

    def __init__(self, params: SFParams):
        self.params = params
        self.stats = ProtocolStats()

    # -- population management --------------------------------------------

    @property
    @abc.abstractmethod
    def population(self) -> int:
        """Number of live nodes."""

    @property
    def members(self) -> Tuple[NodeId, ...]:
        """``tuple(node_ids())``: the accessor churn processes read on
        protocols and kernels alike.  Kernels schedule from their own
        arrays, so nothing reads this per action and it is not cached.
        """
        return tuple(self.node_ids())

    @abc.abstractmethod
    def has_node(self, node_id: NodeId) -> bool: ...

    @abc.abstractmethod
    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        """Join with a bootstrap view (Observation 5.1 rules apply)."""

    @abc.abstractmethod
    def remove_node(self, node_id: NodeId) -> None:
        """Leave/fail: swap-remove from the canonical ordering."""

    # -- execution ---------------------------------------------------------

    @abc.abstractmethod
    def run_batch(self, count: int, rng, loss: LossModel, engine_stats) -> None:
        """Execute ``count`` scheduler picks, updating all counters.

        Any ``loss`` but a uniform one is a ``TypeError`` (:func:`uniform_rate`),
        raised before the kernel draws from ``rng`` or touches any state.
        ``engine_stats`` is the driving engine's
        :class:`repro.engine.sequential.EngineStats`; the kernel owns the
        per-node ``sent``/``received`` load counters itself.
        """

    # -- observation -------------------------------------------------------

    @abc.abstractmethod
    def view_slots(self, node_id: NodeId) -> ViewSlots:
        """Slot-exact view contents, for the equivalence harness."""

    @abc.abstractmethod
    def dependent_fraction(self) -> float:
        """Empirical ``1 − α`` (labels + self-edges + in-view duplicates)."""

    @abc.abstractmethod
    def check_invariant(self) -> None:
        """Assert Observation 5.1 plus internal state consistency."""

    @abc.abstractmethod
    def load_counts(self, kind: str) -> Dict[NodeId, int]:
        """Per-node transport counters; ``kind`` is ``sent`` or ``received``."""

    @abc.abstractmethod
    def reset_load_counts(self, kind: str) -> None: ...
