"""Pluggable simulation kernels for the S&F protocol.

A :class:`~repro.kernel.base.SimulationKernel` owns population state and
executes batches of scheduler picks under a canonical randomness
discipline, so that every backend driven from the same seed produces
bit-identical views and statistics.  Four backends ship:

- :class:`~repro.kernel.reference.ReferenceKernel` — object-per-node
  (``SendForget`` views), the paper-faithful ground truth;
- :class:`~repro.kernel.array.ArrayKernel` — all views in one ``(n, s)``
  numpy id-matrix plus dependence bitmask, settling each batch in fused
  conflict-free windows of fancy-indexed scatter writes;
- :class:`~repro.kernel.jit.JitKernel` — the same state layout with the
  batch loop compiled by Numba (optional ``jit`` extra; see
  :func:`~repro.kernel.jit.jit_available`);
- :class:`~repro.kernel.sharded.ShardedKernel` — the array layout in
  ``multiprocessing.shared_memory`` blocks with per-shard apply workers,
  for million-node populations.
"""

from repro.kernel.array import ArrayKernel
from repro.kernel.base import (
    ActionDraws,
    SimulationKernel,
    decide_loss,
    draw_action_block,
    rank_from_uniform,
)
from repro.kernel.jit import JitKernel, jit_available
from repro.kernel.reference import ReferenceKernel
from repro.kernel.sharded import ShardedKernel

__all__ = [
    "ActionDraws",
    "ArrayKernel",
    "JitKernel",
    "ReferenceKernel",
    "ShardedKernel",
    "SimulationKernel",
    "decide_loss",
    "draw_action_block",
    "jit_available",
    "rank_from_uniform",
]
