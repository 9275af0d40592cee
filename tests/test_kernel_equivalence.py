"""Bit-exact equivalence: ReferenceKernel ≡ every array-family backend.

The kernel layer's canonical draw discipline (``repro.kernel.base``)
guarantees that two kernels driven by equal-seeded generators with the
same batch schedule consume identical random numbers.  These tests hold
every implementation to that bar: after every batch of a mixed schedule
(including batch sizes past the engine's ``MAX_BATCH_ACTIONS``), every
view must match slot-for-slot — ids, dependence flags, and ⊥ positions —
and every protocol/engine counter must agree exactly, across uniform loss
rates (lossless, partial, total) and under churn.  Kernels run uniform
i.i.d. loss only; any other model is a ``TypeError`` at engine
construction and at ``run_batch``, before any state changes.

Covered backends: the fused :class:`ArrayKernel` and
:class:`ShardedKernel` with two apply workers.  The array kernel's bulk
join (``add_nodes``, and the ring bootstrap ``build_sf_system`` feeds it
one ``ROW_BLOCK`` at a time) is held to its ``add_node`` loop in every
state array, and a rejected join to no change at all.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.engine.sequential import EngineStats, SequentialEngine
from repro.experiments.common import build_sf_system
from repro.kernel import ArrayKernel, ReferenceKernel, ShardedKernel
from repro.kernel.array import MAX_NODE_ID, ROW_BLOCK
from repro.net.loss import (
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    PartitionLoss,
    UniformLoss,
)
from repro.protocols.base import ProtocolStats
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


LOSS_MODELS = [
    pytest.param(NoLoss, id="lossless"),
    pytest.param(lambda: UniformLoss(0.3), id="uniform-0.3"),
    pytest.param(lambda: UniformLoss(1.0), id="uniform-1.0-full-loss"),
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
            assert ref.dependent_fraction() == arr.dependent_fraction()
        finally:
            close_kernel(arr)


class _EveryOtherLoss(LossModel):
    """A test-local stateful model: every second message is lost."""

    def __init__(self):
        self.sent = 0

    def is_lost(self, sender, target, rng):
        self.sent += 1
        return self.sent % 2 == 0


NON_UNIFORM_LOSS = [
    pytest.param(
        lambda: GilbertElliottLoss(0.1, 0.4, 0.02, 0.6), id="gilbert-elliott"
    ),
    pytest.param(
        lambda: PartitionLoss({u: u % 2 for u in range(40)}, cross_loss=0.9),
        id="partition",
    ),
    pytest.param(_EveryOtherLoss, id="test-local"),
]


@pytest.mark.parametrize(
    "kernel_cls",
    [pytest.param(ReferenceKernel, id="reference-kernel"), *ARRAY_BACKENDS],
)
@pytest.mark.parametrize("make_loss", NON_UNIFORM_LOSS)
@pytest.mark.parametrize("entry", ["engine", "run_batch"])
def test_kernels_reject_non_uniform_loss_untouched(entry, make_loss, kernel_cls):
    """A kernel runs uniform loss only: any other model is a TypeError
    pointing to the object path, raised before the kernel draws a number
    or changes a counter or a view."""
    kernel = build(kernel_cls, 40)
    try:
        views = [kernel.view_slots(u) for u in kernel.node_ids()]
        rng = make_rng(5)
        rng_state = rng.bit_generator.state
        stats = EngineStats()
        with pytest.raises(TypeError, match='SendForget.*backend="reference"'):
            if entry == "engine":
                SequentialEngine(kernel, make_loss(), seed=rng)
            else:
                kernel.run_batch(500, rng, make_loss(), stats)
        assert rng.bit_generator.state == rng_state
        assert stats == EngineStats()
        assert kernel.stats == ProtocolStats()
        assert [kernel.view_slots(u) for u in kernel.node_ids()] == views
    finally:
        close_kernel(kernel)


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


def live_state(kernel):
    """Every per-row state array's live rows, and the id index's live
    ``(id, row)`` entries (its length is a growth policy's, not state)."""
    n = kernel.population
    state = {
        name: getattr(kernel, "_" + name)[:n].copy() for name in kernel._grown_names()
    }
    known = np.flatnonzero(kernel._id_index >= 0)
    state["id_index"] = np.stack([known, kernel._id_index[known]])
    return state


def assert_same_arrays(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


@st.composite
def ring_cases(draw):
    """Parameters and a population size at the ring bootstrap's edges: one
    short of, at and one past a ``ROW_BLOCK``, a last block whose
    wrapping rows start in the block before it, and n just above the
    bootstrap degree.  Views past 64 slots run without the empty-slot
    bitmask."""
    s = 2 * draw(st.integers(3, 36))
    d_low = 2 * draw(st.integers(0, s // 2 - 3))
    k = 2 * draw(st.integers(max(d_low // 2, 1), s // 2))
    n = draw(
        st.sampled_from(
            [k + 1, k + 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + k - 1]
        )
    )
    return SFParams(view_size=s, d_low=d_low), n, k


class TestBulkJoin:
    """``add_nodes`` ≡ an ``add_node`` loop; a rejected call changes nothing."""

    @settings(max_examples=25, deadline=None)
    @given(case=ring_cases(), seed=st.integers(0, 2**32 - 1))
    def test_ring_bootstrap_matches_add_node_loop(self, case, seed):
        params, n, k = case
        bulk, engine = build_sf_system(
            n, params, loss_rate=0.05, seed=seed, init_outdegree=k, backend="array"
        )
        looped = build(ArrayKernel, n, params=params, init_outdegree=k)
        assert_same_arrays(live_state(bulk), live_state(looped))
        engine.run_rounds(2)
        SequentialEngine(looped, UniformLoss(0.05), seed=seed).run_rounds(2)
        assert_same_arrays(live_state(bulk), live_state(looped))
        bulk.check_invariant()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_order_of_distinct_ids_matches_add_node_loop(self, data):
        """Ids in no particular order take the exact duplicate check."""
        n = data.draw(st.integers(1, 40))
        capacity = data.draw(st.integers(1, 2 * n))
        ids = data.draw(st.permutations(range(n)))
        boot = (np.asarray(ids)[:, None] + np.arange(1, 5)) % n
        bulk = ArrayKernel(PARAMS, capacity=capacity)
        looped = ArrayKernel(PARAMS, capacity=capacity)
        bulk.add_nodes(ids, boot)
        for u, row in zip(ids, boot.tolist()):
            looped.add_node(u, row)
        assert_same_arrays(live_state(bulk), live_state(looped))

    def test_empty_bootstrap_matches_add_node_loop(self):
        """With d_low = 0 a joiner may start with an empty view."""
        params = SFParams(view_size=10, d_low=0)
        bulk = ArrayKernel(params, capacity=2)
        looped = ArrayKernel(params, capacity=2)
        bulk.add_nodes(np.arange(5), np.zeros((5, 0), dtype=np.int64))
        for u in range(5):
            looped.add_node(u, [])
        assert_same_arrays(live_state(bulk), live_state(looped))
        assert bulk.view_slots(3) == (None,) * 10

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_rejected_join_changes_nothing(self, data):
        """A duplicate at any position, a live, negative or over-width id,
        or a bad bootstrap size raises its message before the kernel grows
        or writes anything.  The kernel is full, so an accepted call would
        grow it."""
        kernel = build(ArrayKernel, 8, init_outdegree=6)
        m = data.draw(st.integers(2, 9))
        node_ids = np.arange(8, 8 + m)
        boot = np.tile(np.arange(6), (m, 1))
        pos = data.draw(st.integers(0, m - 1))
        fault = data.draw(
            st.sampled_from(
                ["duplicate", "live", "negative", "negative-boot", "wide",
                 "wide-boot", "odd", "below-d-low", "above-view"]
            )
        )
        if fault == "duplicate":
            other = data.draw(st.integers(0, m - 1).filter(lambda j: j != pos))
            node_ids[pos] = node_ids[other]
            message = "duplicate node ids in bulk join"
        elif fault == "live":
            node_ids[pos] = data.draw(st.integers(0, 7))
            message = f"node {node_ids[pos]} already exists"
        elif fault == "negative":
            node_ids[pos] = -data.draw(st.integers(1, 2**40))
            message = "array kernel requires nonnegative node ids"
        elif fault == "negative-boot":
            boot[pos, data.draw(st.integers(0, 5))] = -1
            message = "array kernel requires nonnegative node ids"
        elif fault == "wide":
            node_ids[pos] = MAX_NODE_ID + data.draw(st.integers(1, 2**40))
            message = f"array kernel holds node ids up to {MAX_NODE_ID}"
        elif fault == "wide-boot":
            boot[pos, data.draw(st.integers(0, 5))] = MAX_NODE_ID + 1
            message = f"array kernel holds node ids up to {MAX_NODE_ID}"
        elif fault == "odd":
            boot = boot[:, :5]
            message = "bootstrap view must have even size"
        elif fault == "below-d-low":
            boot = boot[:, :2]
            message = f"joiner needs at least d_low={PARAMS.d_low} ids"
        else:
            boot = np.tile(np.arange(12), (m, 1))
            message = f"bootstrap view exceeds view size {PARAMS.view_size}"
        if data.draw(st.booleans()):
            order = np.asarray(data.draw(st.permutations(range(m))))
            node_ids, boot = node_ids[order], boot[order]
        before = {
            name: value.copy()
            for name, value in vars(kernel).items()
            if isinstance(value, np.ndarray)
        }
        with mock.patch.object(
            ArrayKernel, "_grow", side_effect=AssertionError("grew")
        ), mock.patch.object(
            ArrayKernel, "_grow_id_index", side_effect=AssertionError("grew")
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                kernel.add_nodes(node_ids, boot)
        assert kernel.population == 8
        after = {
            name: value
            for name, value in vars(kernel).items()
            if isinstance(value, np.ndarray)
        }
        assert after.keys() == before.keys()
        for name, value in before.items():
            assert after[name].shape == value.shape, name
            assert after[name].tobytes() == value.tobytes(), name
