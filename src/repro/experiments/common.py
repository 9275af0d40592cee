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
from repro.net.loss import LossModel, UniformLoss
from repro.util.rng import SeedLike

#: Valid values for ``build_sf_system``'s ``backend`` argument.
BACKENDS = ("reference", "array", "sharded", "reference-kernel")


def build_sf_system(
    n: int,
    params: SFParams,
    loss_rate: float = 0.0,
    seed: SeedLike = None,
    init_outdegree: Optional[int] = None,
    loss_model: Optional[LossModel] = None,
    backend: str = "reference",
) -> Tuple[Union[SendForget, SimulationKernel], SequentialEngine]:
    """Create ``n`` S&F nodes on a ring bootstrap plus a sequential engine.

    Node ``u`` starts with out-edges to ``u+1 .. u+init_outdegree`` (mod n),
    so the initial graph is regular and weakly connected.  The default
    initial outdegree is three quarters of the view size, rounded to an
    even value within ``[d_low, s]`` — comfortably inside the protocol's
    working range.

    ``backend`` selects the state-mutation layer:

    - ``"reference"`` (default) — the per-action ``SendForget`` object
      path, the one the membership goldens pin at any given seed;
    - ``"array"`` — the vectorized :class:`repro.kernel.ArrayKernel`
      (one numpy id-matrix for all views, fused batched execution);
    - ``"sharded"`` — :class:`repro.kernel.ShardedKernel`, the array
      layout in shared memory with one apply process per CPU, for very
      large ``n``;
    - ``"reference-kernel"`` — ``SendForget`` objects driven through the
      batched kernel discipline (mainly for equivalence testing).

    The kernel backends share a canonical randomness discipline and are
    bit-identical to *each other* at any seed, but consume the RNG
    stream differently from ``"reference"``, so per-seed trajectories
    differ across that boundary (distributions do not).
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
        # Bulk join: state-identical to the add_node loop below (no
        # randomness involved), but O(1) numpy calls — at n=10⁶ the loop
        # itself would dwarf the simulation.
        ids = np.arange(n)
        offsets = np.arange(1, init_outdegree + 1)
        protocol.add_nodes(ids, (ids[:, None] + offsets[None, :]) % n)
    else:
        for u in range(n):
            bootstrap = [(u + k) % n for k in range(1, init_outdegree + 1)]
            protocol.add_node(u, bootstrap)
    loss = loss_model if loss_model is not None else UniformLoss(loss_rate)
    # A caller-supplied stateful model (e.g. GilbertElliottLoss) may be
    # reused across replications; start each assembled system with a clean
    # channel so replications stay independent.
    loss.reset()
    engine = SequentialEngine(protocol, loss, seed=seed)
    return protocol, engine


def warm_up(engine: SequentialEngine, rounds: float) -> None:
    """Run ``rounds`` rounds and reset protocol counters.

    After this, statistics reflect steady-state behavior only.
    """
    engine.run_rounds(rounds)
    engine.protocol.stats.reset()
