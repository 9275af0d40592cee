"""Bit-exact equivalence: ReferenceKernel ≡ every array-family backend.

The kernel layer's canonical draw discipline (``repro.kernel.base``)
guarantees that two kernels driven by equal-seeded generators with the
same batch schedule consume identical random numbers.  These tests hold
every implementation to that bar: after every batch of a mixed schedule
(including batch sizes past the engine's ``MAX_BATCH_ACTIONS``), every
view must match slot-for-slot — ids, dependence flags, and ⊥ positions —
and every protocol/engine counter must agree exactly, across loss models
exercising both of the array kernel's execution paths (the unordered
fused-window path for precomputable loss, the in-order prefix path for
stateful loss) and under churn.

Covered backends: the fused :class:`ArrayKernel` and
:class:`ShardedKernel` with two apply workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SFParams
from repro.engine.sequential import EngineStats, SequentialEngine
from repro.experiments.common import build_sf_system
from repro.kernel import ArrayKernel, ReferenceKernel, ShardedKernel
from repro.net.loss import (
    CorrelatedLoss,
    GilbertElliottLoss,
    NoLoss,
    PartitionLoss,
    PerLinkLoss,
    TargetedLoss,
    TopologyLoss,
    UniformLoss,
)
from repro.util.rng import make_rng

PARAMS = SFParams(view_size=10, d_low=4)

#: Mixed batch schedule, deliberately crossing the engine's 4096-action
#: batch cap; total > 10_000 actions per loss model.
BATCH_SCHEDULE = [1, 7, 64, 500, 1000, 2000, 4096, 4096]

STATS_FIELDS = (
    "actions",
    "self_loops",
    "non_self_loop_actions",
    "messages_sent",
    "duplications",
    "deliveries",
    "deletions",
)


def make_sharded(params, capacity=64):
    return ShardedKernel(params, capacity=capacity, workers=2)


#: The array-family backends held bit-exact against ReferenceKernel.
ARRAY_BACKENDS = [
    pytest.param(ArrayKernel, id="array"),
    pytest.param(make_sharded, id="sharded-2-workers"),
]


def build(kernel_cls, n, params=PARAMS, capacity=None, init_outdegree=10):
    kernel = (
        kernel_cls(params)
        if kernel_cls is ReferenceKernel
        else kernel_cls(params, capacity=capacity or n)
    )
    for u in range(n):
        kernel.add_node(u, [(u + k) % n for k in range(1, init_outdegree + 1)])
    return kernel


def close_kernel(kernel):
    if hasattr(kernel, "close"):
        kernel.close()


def assert_same_state(ref, arr, context=""):
    assert ref.population == arr.population, context
    assert ref.node_ids() == arr.node_ids(), context
    for u in ref.node_ids():
        assert ref.view_slots(u) == arr.view_slots(u), (context, u)
    for name in STATS_FIELDS:
        assert getattr(ref.stats, name) == getattr(arr.stats, name), (context, name)


def make_partition_loss():
    return PartitionLoss({u: u % 2 for u in range(200)}, cross_loss=0.9)


def make_per_link_loss():
    rates = {
        (s, t): ((s * 31 + t) % 7) / 10.0 for s in range(40) for t in range(40)
    }
    return PerLinkLoss(rates, default_rate=0.05)


def make_targeted_loss():
    # Stateless, precomputable per pair: rides the fused fast path.
    return TargetedLoss(victims=range(0, 200, 17), victim_loss=0.85, base_loss=0.05)


def make_correlated_loss():
    # Stateful (global message counter): forces the in-order prefix path.
    return CorrelatedLoss(period=37, burst=11, burst_loss=0.7, base_loss=0.05)


def make_topology_loss():
    # Ring admission mask: stateless, fused path, with hard (rate 1.0)
    # off-mask drops mixed into probabilistic on-mask loss.
    neighbors = {
        u: frozenset((u + k) % 200 for k in range(-8, 9) if k != 0)
        for u in range(200)
    }
    return TopologyLoss(neighbors, edge_loss=0.1)


LOSS_MODELS = [
    pytest.param(NoLoss, id="lossless"),
    pytest.param(lambda: UniformLoss(0.3), id="uniform-0.3"),
    pytest.param(lambda: UniformLoss(1.0), id="uniform-1.0-full-loss"),
    pytest.param(
        lambda: GilbertElliottLoss(0.1, 0.4, 0.02, 0.6), id="gilbert-elliott"
    ),
    pytest.param(make_partition_loss, id="partition"),
    pytest.param(make_per_link_loss, id="per-link"),
    pytest.param(make_targeted_loss, id="targeted"),
    pytest.param(make_correlated_loss, id="correlated"),
    pytest.param(make_topology_loss, id="topology"),
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel_cls", ARRAY_BACKENDS)
    @pytest.mark.parametrize("make_loss", LOSS_MODELS)
    def test_slot_exact_over_batch_schedule(self, make_loss, kernel_cls):
        n = 200
        ref = build(ReferenceKernel, n)
        arr = build(kernel_cls, n)
        try:
            rng_ref, rng_arr = make_rng(42), make_rng(42)
            stats_ref, stats_arr = EngineStats(), EngineStats()
            loss_ref, loss_arr = make_loss(), make_loss()
            for batch in BATCH_SCHEDULE:
                ref.run_batch(batch, rng_ref, loss_ref, stats_ref)
                arr.run_batch(batch, rng_arr, loss_arr, stats_arr)
                assert_same_state(ref, arr, context=f"after batch {batch}")
                ref.check_invariant()
                arr.check_invariant()
            assert stats_ref == stats_arr
            assert stats_ref.actions == sum(BATCH_SCHEDULE) > 10_000
        finally:
            close_kernel(arr)

    def test_full_loss_never_delivers(self):
        ref = build(ReferenceKernel, 50)
        arr = build(ArrayKernel, 50)
        stats_ref, stats_arr = EngineStats(), EngineStats()
        ref.run_batch(2000, make_rng(3), UniformLoss(1.0), stats_ref)
        arr.run_batch(2000, make_rng(3), UniformLoss(1.0), stats_arr)
        assert stats_ref == stats_arr
        assert stats_arr.messages_delivered == 0
        assert stats_arr.messages_lost == stats_arr.messages_sent > 0

    @pytest.mark.parametrize("kernel_cls", ARRAY_BACKENDS)
    def test_equivalence_under_churn(self, kernel_cls):
        """Joins and swap-remove leaves interleaved with lossy batches.

        The tiny initial capacity also exercises array growth — for the
        sharded backend, that is the worker re-attach protocol firing
        mid-run while batches keep flowing.
        """
        n = 60
        ref = build(ReferenceKernel, n)
        arr = build(kernel_cls, n, capacity=8)
        try:
            rng_ref, rng_arr = make_rng(7), make_rng(7)
            stats_ref, stats_arr = EngineStats(), EngineStats()
            churn_rng = np.random.default_rng(99)
            next_id = n
            for step in range(40):
                ref.run_batch(250, rng_ref, UniformLoss(0.1), stats_ref)
                arr.run_batch(250, rng_arr, UniformLoss(0.1), stats_arr)
                assert_same_state(ref, arr, context=f"churn step {step}")
                ref.check_invariant()
                arr.check_invariant()
                if step % 3 == 0 and ref.population > 20:
                    victim = int(churn_rng.choice(ref.node_ids()))
                    ref.remove_node(victim)
                    arr.remove_node(victim)
                if step % 4 == 0:
                    donors = sorted(ref.node_ids())[:6]
                    ref.add_node(next_id, donors)
                    arr.add_node(next_id, donors)
                    next_id += 1
            assert stats_ref == stats_arr
            # Departed nodes attracted messages: tracked apart from loss.
            assert stats_arr.messages_to_departed > 0
            assert ref.load_counts("sent") == arr.load_counts("sent")
            assert ref.load_counts("received") == arr.load_counts("received")
            assert ref.indegrees() == arr.indegrees() == ref.protocol.indegrees()
            assert ref.export_graph() == arr.export_graph() == ref.protocol.export_graph()
            assert ref.dependent_fraction() == pytest.approx(
                arr.dependent_fraction(), abs=1e-12
            )
        finally:
            close_kernel(arr)

    def test_stateful_loss_uses_identical_aux_stream(self):
        """Gilbert–Elliott consumes an auxiliary generator; both kernels
        must spawn it at the same point of the main stream."""
        ref = build(ReferenceKernel, 80)
        arr = build(ArrayKernel, 80)
        stats_ref, stats_arr = EngineStats(), EngineStats()
        rng_ref, rng_arr = make_rng(11), make_rng(11)
        loss_ref = GilbertElliottLoss(0.2, 0.3, 0.01, 0.8)
        loss_arr = GilbertElliottLoss(0.2, 0.3, 0.01, 0.8)
        for batch in (1, 3, 1500, 4096):
            ref.run_batch(batch, rng_ref, loss_ref, stats_ref)
            arr.run_batch(batch, rng_arr, loss_arr, stats_arr)
            assert_same_state(ref, arr, context=f"aux batch {batch}")
        assert stats_ref == stats_arr
        assert 0 < stats_arr.messages_lost < stats_arr.messages_sent


class TestStatefulLossEquivalence:
    """The ``rate_for() -> None`` / ``is_lost`` fallback path of
    ``decide_loss``, driven through both kernels with evolving loss-model
    state: per-sender Gilbert–Elliott channels (including a mid-schedule
    ``reset()``) and a partition that splits and heals mid-schedule."""

    def test_gilbert_elliott_requests_the_fallback_path(self):
        loss = GilbertElliottLoss(0.1, 0.4, 0.02, 0.6)
        assert loss.rate_for(0, 1) is None  # stateful: no precomputable rate
        assert UniformLoss(0.3).rate_for(0, 1) == 0.3

    def test_gilbert_elliott_reset_mid_schedule(self):
        """Both kernels stay slot-exact when the channel state is wiped
        between batches — resets happen at identical stream positions."""
        ref = build(ReferenceKernel, 100)
        arr = build(ArrayKernel, 100)
        rng_ref, rng_arr = make_rng(23), make_rng(23)
        stats_ref, stats_arr = EngineStats(), EngineStats()
        loss_ref = GilbertElliottLoss(0.15, 0.3, 0.01, 0.7)
        loss_arr = GilbertElliottLoss(0.15, 0.3, 0.01, 0.7)
        for step, batch in enumerate((500, 1500, 800, 2000)):
            ref.run_batch(batch, rng_ref, loss_ref, stats_ref)
            arr.run_batch(batch, rng_arr, loss_arr, stats_arr)
            assert_same_state(ref, arr, context=f"GE reset step {step}")
            assert loss_ref._bad_state == loss_arr._bad_state, step
            if step % 2 == 0:
                assert loss_ref._bad_state  # channels actually evolved
                loss_ref.reset()
                loss_arr.reset()
        assert stats_ref == stats_arr
        assert 0 < stats_arr.messages_lost < stats_arr.messages_sent

    def test_partition_split_and_heal_mid_schedule(self):
        """An *activated* partition (0.9 cross loss), healed and re-split
        between batches, must stay slot-exact across kernels."""
        ref = build(ReferenceKernel, 120)
        arr = build(ArrayKernel, 120)
        rng_ref, rng_arr = make_rng(31), make_rng(31)
        stats_ref, stats_arr = EngineStats(), EngineStats()
        loss_ref, loss_arr = make_partition_loss(), make_partition_loss()
        assert loss_ref.active and loss_ref.rate_for(0, 1) == 0.9
        phases = [("split", 1200), ("heal", 1200), ("split", 2400)]
        for phase, batch in phases:
            for model in (loss_ref, loss_arr):
                getattr(model, phase)()
            ref.run_batch(batch, rng_ref, loss_ref, stats_ref)
            arr.run_batch(batch, rng_arr, loss_arr, stats_arr)
            assert_same_state(ref, arr, context=f"partition {phase}")
            ref.check_invariant()
            arr.check_invariant()
        assert stats_ref == stats_arr
        assert 0 < stats_arr.messages_lost < stats_arr.messages_sent


class TestEngineLevelEquivalence:
    """The two kernel backends through the full SequentialEngine stack."""

    def test_backends_bit_identical_through_engine(self):
        params = SFParams(view_size=12, d_low=4)
        _, engine_ref = build_sf_system(
            120, params, loss_rate=0.05, seed=17, backend="reference-kernel"
        )
        _, engine_arr = build_sf_system(
            120, params, loss_rate=0.05, seed=17, backend="array"
        )
        snaps_ref, snaps_arr = [], []
        engine_ref.add_round_hook(
            10, lambda eng, r: snaps_ref.append((r, eng.stats.messages_sent))
        )
        engine_arr.add_round_hook(
            10, lambda eng, r: snaps_arr.append((r, eng.stats.messages_sent))
        )
        engine_ref.run_rounds(45)
        engine_arr.run_rounds(45)
        assert snaps_ref == snaps_arr
        assert engine_ref.stats == engine_arr.stats
        assert engine_ref.rounds_completed == pytest.approx(
            engine_arr.rounds_completed
        )
        for u in engine_ref.protocol.node_ids():
            assert engine_ref.protocol.view_slots(u) == engine_arr.protocol.view_slots(u)
        assert engine_ref.load_counts("received") == engine_arr.load_counts("received")

    def test_engine_step_and_run_actions_agree(self):
        params = SFParams(view_size=10, d_low=2)
        ref = build(ReferenceKernel, 30, params=params, init_outdegree=6)
        arr = build(ArrayKernel, 30, params=params, init_outdegree=6)
        engine_ref = SequentialEngine(ref, UniformLoss(0.2), seed=5)
        engine_arr = SequentialEngine(arr, UniformLoss(0.2), seed=5)
        for _ in range(50):
            engine_ref.step()
            engine_arr.step()
        engine_ref.run_actions(1234)
        engine_arr.run_actions(1234)
        assert engine_ref.stats == engine_arr.stats
        assert_same_state(ref, arr, context="engine step/run_actions")
