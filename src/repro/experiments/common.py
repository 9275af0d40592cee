"""Shared experiment scaffolding: system construction and warm-up.

All simulation experiments start from a "sufficiently connected" initial
topology (section 2's premise): each node bootstraps with ``init_outdegree``
distinct ring neighbors, giving a regular, weakly connected start, and the
engine runs a warm-up period so measurements happen in the steady state
(section 6's setting).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.kernel import ArrayKernel, ReferenceKernel, ShardedKernel, SimulationKernel
from repro.kernel.array import ROW_BLOCK
from repro.net.loss import UniformLoss
from repro.util.rng import SeedLike

#: Valid values for ``build_sf_system``'s ``backend`` argument.
BACKENDS = ("reference", "array", "sharded", "reference-kernel")


def build_sf_system(
    n: int,
    params: SFParams,
    loss_rate: float = 0.0,
    seed: SeedLike = None,
    init_outdegree: Optional[int] = None,
    backend: str = "reference",
) -> Tuple[Union[SendForget, SimulationKernel], SequentialEngine]:
    """Create ``n`` S&F nodes on a ring bootstrap plus a sequential engine.

    Node ``u`` starts with out-edges to ``u+1 .. u+init_outdegree`` (mod n),
    so the initial graph is regular and weakly connected.  The default
    initial outdegree is three quarters of the view size, rounded to an
    even value within ``[d_low, s]`` — comfortably inside the protocol's
    working range.  Messages are lost i.i.d. at ``loss_rate`` (§4.1), the
    only model a kernel runs; other loss models run on a ``SendForget``
    and :class:`SequentialEngine` built directly.

    ``backend`` selects the state-mutation layer:

    - ``"reference"`` (default) — the per-action ``SendForget`` object
      path, every draw off the engine's ``draws`` block (the scheduler
      pick, both steps, the loss coin); the membership goldens pin it;
    - ``"array"`` — the vectorized :class:`repro.kernel.ArrayKernel`
      (one numpy id-matrix for all views, fused batched execution);
    - ``"sharded"`` — :class:`repro.kernel.ShardedKernel`, the array
      layout in shared memory with one apply process per CPU, for very
      large ``n``;
    - ``"reference-kernel"`` — ``SendForget`` objects driven through the
      batched kernel discipline (mainly for equivalence testing).

    The kernel backends share a canonical randomness discipline
    (``draw_action_block`` on ``engine.rng``) and are bit-identical to
    *each other* at any seed.  ``"reference"`` consumes the same seeded
    stream through ``engine.draws`` one draw at a time, so per-seed
    trajectories differ across that boundary (distributions do not).
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    if init_outdegree is None:
        init_outdegree = params.default_bootstrap_degree
    if init_outdegree % 2 != 0:
        raise ValueError(f"init_outdegree must be even, got {init_outdegree}")
    if init_outdegree >= n:
        raise ValueError(
            f"init_outdegree={init_outdegree} needs n > init_outdegree, got n={n}"
        )
    params.validate_outdegree(init_outdegree)
    if backend == "reference":
        protocol: Union[SendForget, SimulationKernel] = SendForget(params)
    elif backend == "array":
        protocol = ArrayKernel(params, capacity=n)
    elif backend == "sharded":
        protocol = ShardedKernel(params, capacity=n)
    elif backend == "reference-kernel":
        protocol = ReferenceKernel(params)
    else:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if isinstance(protocol, ArrayKernel):
        # Bulk join, one block of rows at a time: state-identical to the
        # add_node loop below (no randomness involved), but O(n / block)
        # numpy calls — at n=10⁶ the loop itself would dwarf the
        # simulation — and no (n × k) bootstrap matrix.  A block is the
        # first block shifted by its first id, written into one reused
        # buffer; only rows u ≥ n − init_outdegree wrap, so only they
        # pay for the modulus.
        first = np.arange(ROW_BLOCK)[:, None] + np.arange(1, init_outdegree + 1)
        ring = np.empty_like(first)
        for lo in range(0, n, ROW_BLOCK):
            m = min(ROW_BLOCK, n - lo)
            np.add(first[:m], lo, out=ring[:m])
            tail = ring[max(n - init_outdegree - lo, 0):m]
            tail[tail >= n] -= n
            protocol.add_nodes(np.arange(lo, lo + m), ring[:m])
    else:
        for u in range(n):
            bootstrap = [(u + k) % n for k in range(1, init_outdegree + 1)]
            protocol.add_node(u, bootstrap)
    engine = SequentialEngine(protocol, UniformLoss(loss_rate), seed=seed)
    return protocol, engine


def warm_up(engine: SequentialEngine, rounds: float) -> None:
    """Run ``rounds`` rounds and reset protocol counters.

    After this, statistics reflect steady-state behavior only.
    """
    engine.run_rounds(rounds)
    engine.protocol.stats.reset()
