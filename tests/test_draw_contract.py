"""Who draws from what: the engines' draw contract.

A kernel draws its batches from the engine's seeded ``rng`` through
:func:`~repro.kernel.base.draw_action_block` and nothing else, so the
``sim-array-1m`` trajectories and kernel equivalence do not depend on the
per-pick path.  A protocol under either engine draws only through the
engine's :class:`~repro.util.rng.BlockDraws`: the scheduler pick, both
protocol steps, loss coins, delays and DES clock gaps, so the generator
sees nothing but whole-block ``random(BLOCK)`` calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.engine.sequential import MAX_BATCH_ACTIONS, SequentialEngine
from repro.experiments.common import build_sf_system
from repro.kernel.base import draw_action_block
from repro.net.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.net.loss import GilbertElliottLoss, PartitionLoss, UniformLoss
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol
from repro.util.rng import BlockDraws, make_rng

PARAMS = SFParams(view_size=10, d_low=4)
N = 30


@pytest.mark.parametrize("backend", ["reference-kernel", "array"])
def test_kernel_engine_draws_only_the_canonical_blocks(backend):
    """The engine's generator ends where a twin that only ran
    ``draw_action_block`` over the same batches ends: the engine's
    ``draws`` never pulled a block, and nothing else touched ``rng``."""
    protocol, engine = build_sf_system(
        200, PARAMS, loss_rate=0.1, seed=5, backend=backend
    )
    churn = ChurnProcess(protocol, 2.0, 2.0, seed=6)
    engine.add_round_hook(1, lambda _engine, _round: churn.apply_round())
    schedule = []
    run_batch = protocol.run_batch

    def recorded(count, rng, loss, stats):
        schedule.append((count, protocol.population))
        run_batch(count, rng, loss, stats)

    protocol.run_batch = recorded
    engine.run_rounds(3.5)
    engine.run_actions(MAX_BATCH_ACTIONS + 7)
    assert len(schedule) > 4 and churn.joined and churn.left

    twin = make_rng(5)
    for count, population in schedule:
        draw_action_block(twin, count, population, PARAMS.view_size)
    assert engine.rng.bit_generator.state == twin.bit_generator.state


class SpyGenerator(np.random.Generator):
    """A seeded generator that serves ``random(BlockDraws.BLOCK)`` only.

    Every other public method fails the test, so a scalar draw on the
    per-pick path — or any draw that bypasses the engine's ``draws`` —
    shows up as the method that made it.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.blocks = 0

    def random(self, size=None, dtype=np.float64, out=None):
        if size != BlockDraws.BLOCK or dtype is not np.float64 or out is not None:
            raise AssertionError(f"Generator.random(size={size!r}) off the block path")
        self.blocks += 1
        return super().random(size)


def _forbidden(name):
    def call(self, *args, **kwargs):
        raise AssertionError(f"Generator.{name} called beside the engine's draws")

    return call


for _name in dir(np.random.Generator):
    if not _name.startswith("_") and _name not in ("random", "bit_generator"):
        setattr(SpyGenerator, _name, _forbidden(_name))


PROTOCOLS = {
    "sandf": lambda: SendForget(PARAMS),
    "push": lambda: PushProtocol(view_size=8),
    "pushpull": lambda: PushPullProtocol(view_size=8),
    "shuffle": lambda: ShuffleProtocol(view_size=8),
}

LOSSES = {
    "uniform": lambda: UniformLoss(0.1),
    "gilbert-elliott": lambda: GilbertElliottLoss(0.1, 0.4, 0.02, 0.6),
    "partition": lambda: PartitionLoss(
        {u: u % 2 for u in range(N)}, cross_loss=0.5, base_loss=0.05
    ),
}

#: The sequential engine has no delay model; the DES runs under each.
ENGINES = {
    "sequential": None,
    "des-constant": lambda: ConstantDelay(0.5),
    "des-exponential": lambda: ExponentialDelay(1.0),
    "des-uniform": lambda: UniformDelay(0.2, 2.0),
}


@pytest.mark.parametrize("engine_kind", sorted(ENGINES))
@pytest.mark.parametrize("loss", sorted(LOSSES))
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_protocol_engines_draw_only_through_their_block(
    protocol_name, loss, engine_kind
):
    protocol = PROTOCOLS[protocol_name]()
    for u in range(N):
        protocol.add_node(u, [(u + k) % N for k in range(1, 7)])
    spy = SpyGenerator(17)
    if ENGINES[engine_kind] is None:
        engine = SequentialEngine(protocol, LOSSES[loss](), seed=spy)
        engine.run_rounds(5)
        protocol.remove_node(3)
        protocol.add_node(N, [1, 2, 4, 5, 6, 7])
        engine.run_rounds(2)
        engine.stats.check_conservation()
    else:
        engine = DiscreteEventEngine(
            protocol, LOSSES[loss](), ENGINES[engine_kind](), seed=spy
        )
        engine.run_until(5.0)
        protocol.remove_node(3)
        engine.add_node(N, [1, 2, 4, 5, 6, 7])
        engine.run_until(8.0)
    assert engine.rng is spy and spy.blocks >= 1
    assert engine.stats.messages_sent > 0 and engine.stats.messages_delivered > 0
