"""Unit tests for the vectorized array kernel's own machinery.

``tests/test_kernel_equivalence.py`` proves the array kernel matches the
reference implementation bit-for-bit; these tests cover the array-specific
surface — id-index growth, swap-remove row moves, input validation, the
metrics fast paths, and invariant checking — where a bug could hide
behind a compensating bug in batch execution.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.params import SFParams
from repro.core.view import View, dependent_fraction
from repro.engine.sequential import EngineStats
from repro.experiments.common import build_sf_system
from repro.kernel import ArrayKernel, ReferenceKernel
from repro.kernel import array as array_module
from repro.kernel.array import EMPTY, MAX_NODE_ID, ROW_BLOCK
from repro.net.loss import UniformLoss
from repro.util.rng import make_rng

PARAMS = SFParams(view_size=10, d_low=4)


def ring_kernel(n, capacity=None, params=PARAMS, init_outdegree=6):
    kernel = ArrayKernel(params, capacity=capacity or n)
    for u in range(n):
        kernel.add_node(u, [(u + k) % n for k in range(1, init_outdegree + 1)])
    return kernel


def run_some(kernel, actions=2000, seed=1, loss_rate=0.1):
    kernel.run_batch(actions, make_rng(seed), UniformLoss(loss_rate), EngineStats())


def state_arrays(kernel):
    """Copies of every state array and the population, for before/after."""
    arrays = {
        name: value.copy()
        for name, value in vars(kernel).items()
        if isinstance(value, np.ndarray)
    }
    return arrays, kernel.population


def assert_same_state(kernel, before):
    arrays, population = before
    assert kernel.population == population
    now = {n: v for n, v in vars(kernel).items() if isinstance(v, np.ndarray)}
    assert now.keys() == arrays.keys()
    for name, value in arrays.items():
        assert now[name].dtype == value.dtype, name
        assert np.array_equal(now[name], value), name


class TestPopulation:
    def test_add_and_views(self):
        kernel = ring_kernel(12)
        assert kernel.population == 12
        assert kernel.node_ids() == list(range(12))
        assert kernel.outdegree(0) == 6
        assert kernel.view_of(0) == {(0 + k) % 12: 1 for k in range(1, 7)}
        slots = kernel.view_slots(0)
        assert len(slots) == PARAMS.view_size
        assert slots[6:] == (None,) * 4
        assert all(entry == (v, False) for entry, v in zip(slots[:6], range(1, 7)))

    def test_capacity_growth_preserves_state(self):
        kernel = ring_kernel(50, capacity=2)
        assert kernel.population == 50
        for u in range(50):
            assert kernel.outdegree(u) == 6
        kernel.check_invariant()

    def test_id_index_growth_covers_bootstrap_ids(self):
        # A view may hold an id far above any live node's; target lookup
        # must resolve it (to "departed") rather than read out of bounds.
        kernel = ArrayKernel(PARAMS, capacity=4)
        kernel.add_node(0, [10_000, 10_001, 10_002, 10_003])
        kernel.add_node(1, [0, 10_000, 10_001, 10_002])
        run_some(kernel, actions=200)
        kernel.check_invariant()

    def test_swap_remove_keeps_canonical_order(self):
        kernel = ring_kernel(6)
        kernel.remove_node(1)
        # The last node takes the vacated position.
        assert kernel.node_ids() == [0, 5, 2, 3, 4]
        assert not kernel.has_node(1)
        kernel.check_invariant()

    def test_remove_unknown_raises(self):
        kernel = ring_kernel(5)
        with pytest.raises(KeyError):
            kernel.remove_node(99)

    def test_duplicate_add_raises(self):
        kernel = ring_kernel(5)
        with pytest.raises(ValueError, match="already exists"):
            kernel.add_node(2, [0, 1])

    def test_negative_node_id_rejected(self):
        kernel = ArrayKernel(PARAMS)
        with pytest.raises(ValueError, match="nonnegative"):
            kernel.add_node(-1, [0, 1, 2, 3])

    def test_negative_bootstrap_id_rejected(self):
        kernel = ArrayKernel(PARAMS)
        with pytest.raises(ValueError, match="nonnegative"):
            kernel.add_node(0, [1, -2, 3, 4])

    @pytest.mark.parametrize(
        "node_id, bootstrap",
        [(MAX_NODE_ID + 1, [0, 1, 2, 3]), (8, [0, 1, MAX_NODE_ID + 1, 3])],
        ids=["node-id", "bootstrap-id"],
    )
    def test_id_above_int32_rejected_before_any_allocation(self, node_id, bootstrap):
        # The kernel is at capacity, so an accepted call would grow it;
        # growing the id index to the bad id would allocate 16 GB.
        kernel = ring_kernel(8)
        before = state_arrays(kernel)
        with mock.patch.object(
            ArrayKernel, "_grow_id_index", side_effect=AssertionError("grew")
        ):
            with pytest.raises(ValueError, match="node ids up to"):
                kernel.add_node(node_id, bootstrap)
            with pytest.raises(ValueError, match="node ids up to"):
                # The bad id rides in the second row of the block.
                kernel.add_nodes([9, node_id], [[0, 1, 2, 3], bootstrap])
        assert_same_state(kernel, before)

    def test_bootstrap_size_rules(self):
        kernel = ArrayKernel(PARAMS)
        with pytest.raises(ValueError, match="even"):
            kernel.add_node(0, [1, 2, 3])
        with pytest.raises(ValueError, match="d_low"):
            kernel.add_node(0, [1, 2])
        with pytest.raises(ValueError, match="view size"):
            kernel.add_node(0, list(range(1, 13)))

    def test_empty_population_cannot_run(self):
        kernel = ArrayKernel(PARAMS)
        with pytest.raises(RuntimeError):
            kernel.run_batch(1, make_rng(0), UniformLoss(0.0), EngineStats())


class TestObservation:
    def test_degree_arrays_match_slow_paths(self):
        kernel = ring_kernel(40)
        run_some(kernel)
        out, indeg = kernel.degree_arrays()
        nodes = kernel.node_ids()
        assert out.tolist() == [kernel.outdegree(u) for u in nodes]
        slow = kernel.indegrees()
        assert indeg.tolist() == [slow[u] for u in nodes]

    def test_indegrees_ignore_departed_ids(self):
        kernel = ring_kernel(10)
        kernel.remove_node(3)
        indeg = kernel.indegrees()
        assert 3 not in indeg
        _, fast = kernel.degree_arrays()
        assert fast.tolist() == [indeg[u] for u in kernel.node_ids()]

    def test_dependent_fraction_matches_reference(self):
        arr = ring_kernel(40)
        ref = ReferenceKernel(PARAMS)
        for u in range(40):
            ref.add_node(u, [(u + k) % 40 for k in range(1, 7)])
        stats_a, stats_r = EngineStats(), EngineStats()
        arr.run_batch(3000, make_rng(4), UniformLoss(0.1), stats_a)
        ref.run_batch(3000, make_rng(4), UniformLoss(0.1), stats_r)
        assert arr.dependent_fraction() == ref.dependent_fraction()
        assert 0.0 < arr.dependent_fraction() < 1.0

    def test_view_ids_array_matches_view_of(self):
        kernel = ring_kernel(20)
        run_some(kernel, actions=500)
        for u in kernel.node_ids():
            held = kernel.view_ids_array(u)
            assert (held >= 0).all()
            counted = {}
            for node_id in held.tolist():
                counted[node_id] = counted.get(node_id, 0) + 1
            assert counted == dict(kernel.view_of(u))

    def test_array_state_is_live_slice(self):
        kernel = ring_kernel(15)
        ids, node_at = kernel.array_state()
        assert ids.shape == (15, PARAMS.view_size)
        assert node_at.tolist() == kernel.node_ids()

    def test_load_counts_track_and_reset(self):
        kernel = ring_kernel(25)
        stats = EngineStats()
        kernel.run_batch(2000, make_rng(2), UniformLoss(0.0), stats)
        sent = kernel.load_counts("sent")
        received = kernel.load_counts("received")
        assert sum(sent.values()) == stats.messages_sent
        assert sum(received.values()) == stats.messages_delivered
        kernel.reset_load_counts("sent")
        assert kernel.load_counts("sent") == {}
        assert kernel.load_counts("received") == received

    def test_export_graph_counts_multiplicity(self):
        kernel = ring_kernel(10)
        run_some(kernel, actions=300)
        graph = kernel.export_graph()
        for u in kernel.node_ids():
            assert graph.outdegree(u) <= kernel.outdegree(u)


@st.composite
def slot_layouts(draw):
    """A row-block size, a population of block − 1, block, block + 1 or
    2·block + 1 rows, and arbitrary views over them: ⊥, labels, self-edges,
    duplicate ids whose first copy is labelled or not, and ids of nodes
    that never joined (departed).  Small id pools make duplicates common."""
    s = 2 * draw(st.integers(3, 45))  # view sizes are even: 6 … 90
    block = draw(st.integers(1, 9))
    rows = max(0, block + draw(st.sampled_from([-1, 0, 1, block + 1])))
    slot = st.integers(-1, rows + 2) | st.just(EMPTY)
    ids = draw(arrays(np.int64, (rows, s), elements=slot))
    dep = draw(arrays(np.bool_, (rows, s))) & (ids != EMPTY)
    return block, ids, dep


def layout_kernel(ids, dep):
    """An ArrayKernel whose row ``r`` is node ``r`` holding ``ids[r]``."""
    rows, s = ids.shape
    kernel = ArrayKernel(SFParams(view_size=s, d_low=0), capacity=max(rows, 1))
    kernel.add_nodes(np.arange(rows), np.zeros((rows, 2), dtype=np.int64))
    kernel._ids[:rows] = ids
    kernel._dep[:rows] = dep
    return kernel


def layout_views(ids, dep):
    """The same layout as ``(owner, View)`` pairs for the object path."""
    views = []
    for owner in range(ids.shape[0]):
        view = View(ids.shape[1])
        for slot in np.flatnonzero(ids[owner] != EMPTY).tolist():
            view.store_into(slot, int(ids[owner, slot]), bool(dep[owner, slot]))
        views.append((owner, view))
    return views


class TestDependentFractionDefinition:
    """``ArrayKernel.dependent_fraction`` is exactly
    :func:`repro.core.view.dependent_fraction` on the same views — the same
    two integers divided — whatever the layout and wherever the row-block
    boundaries fall."""

    @settings(max_examples=150, deadline=None)
    @given(slot_layouts())
    def test_equals_object_path_definition(self, layout):
        block, ids, dep = layout
        kernel = layout_kernel(ids, dep)
        with mock.patch.object(array_module, "ROW_BLOCK", block):
            assert kernel.dependent_fraction() == dependent_fraction(
                layout_views(ids, dep)
            )

    def test_labelled_first_copy_makes_later_copies_dependent(self):
        # Node 0: 3 (labelled), 3, ⊥, 0 (self-edge), 4, 4 — only the first
        # 4 is independent.  Node 1: 2, 2 (labelled), 9 (departed), ⊥ ×3 —
        # the first 2 and the 9 are independent.  So 5 of 8 are dependent.
        ids = np.array([[3, 3, EMPTY, 0, 4, 4], [2, 2, 9, EMPTY, EMPTY, EMPTY]])
        dep = np.zeros_like(ids, dtype=bool)
        dep[0, 0] = dep[1, 1] = True
        assert dependent_fraction(layout_views(ids, dep)) == 5 / 8
        for block in (1, 2, ROW_BLOCK):
            with mock.patch.object(array_module, "ROW_BLOCK", block):
                assert layout_kernel(ids, dep).dependent_fraction() == 5 / 8


class TestInvariant:
    def test_even_outdegrees_maintained(self):
        kernel = ring_kernel(30)
        run_some(kernel, actions=5000, loss_rate=0.3)
        out, _ = kernel.degree_arrays()
        assert (out % 2 == 0).all()
        assert (out <= PARAMS.view_size).all()
        kernel.check_invariant()

    def test_invariant_detects_corruption(self):
        kernel = ring_kernel(10)
        kernel._outdeg[0] += 1  # desync the cached outdegree
        with pytest.raises(AssertionError):
            kernel.check_invariant()

    def test_invariant_detects_stale_id_index(self):
        kernel = ring_kernel(10)
        kernel._id_index[3] = -1  # forget a live node
        with pytest.raises(AssertionError):
            kernel.check_invariant()


#: A view wider than 64 slots: no empty-slot bitmask, per-row counts instead.
WIDE = SFParams(view_size=70, d_low=20)


def boundary_kernel(params):
    """A lossy-run population one row longer than the snapshot's row block,
    and its last row — alone in the second block, where a block-boundary
    off-by-one would miss it."""
    kernel, engine = build_sf_system(
        ROW_BLOCK + 1, params, loss_rate=0.1, seed=5, backend="array"
    )
    engine.run_rounds(2)
    return kernel, kernel.population - 1


def clear_slots(kernel, row, count):
    """Empty ``count`` occupied slots of ``row`` with every counter in step."""
    cols = np.flatnonzero(kernel._ids[row] != EMPTY)[:count]
    kernel._ids[row, cols] = EMPTY
    kernel._dep[row, cols] = False
    kernel._outdeg[row] -= cols.size
    if kernel._ebits is not None:
        for col in cols.tolist():
            kernel._ebits[row] |= np.uint64(1 << col)


def first_slot(kernel, row, empty):
    cols = np.flatnonzero((kernel._ids[row] == EMPTY) == empty)
    assert cols.size, "the planted row needs such a slot"
    return int(cols[0])


def outdegree_desync(kernel, row):
    kernel._outdeg[row] += 2


def ids_behind_counters(kernel, row):
    kernel._ids[row, first_slot(kernel, row, empty=False)] = EMPTY


def odd_outdegree(kernel, row):
    clear_slots(kernel, row, 1)


def outdegree_below_d_low(kernel, row):
    clear_slots(kernel, row, int(kernel._outdeg[row]) - (kernel.params.d_low - 2))


def dependence_bit_on_empty(kernel, row):
    kernel._dep[row, first_slot(kernel, row, empty=True)] = True


def node_at_desync(kernel, row):
    kernel._node_at[row] = kernel._node_at[0]


def stale_id_index(kernel, row):
    kernel._id_index[kernel._node_at[row]] = -1


def ebits_bit_flip(kernel, row):
    kernel._ebits[row] ^= np.uint64(1)


#: Each guarded property of Observation 5.1 / the kernel's bookkeeping,
#: with the message the check raises for it.
CORRUPTIONS = [
    (outdegree_desync, "outdegree counter out of sync"),
    (ids_behind_counters, "outdegree counter out of sync"),
    (odd_outdegree, "odd outdegree"),
    (outdegree_below_d_low, r"outside \["),
    (dependence_bit_on_empty, "dependence bit set on an empty slot"),
    (node_at_desync, "id index out of sync with node_at"),
    (stale_id_index, "id index size out of sync"),
    (ebits_bit_flip, "empty-slot bitmask out of sync"),
]


class TestInvariantCorruptionMatrix:
    @pytest.mark.parametrize("params", [PARAMS, WIDE], ids=["s10", "s70"])
    def test_uncorrupted_population_passes(self, params):
        kernel, _ = boundary_kernel(params)
        kernel.check_invariant()

    @pytest.mark.parametrize(
        "params, corrupt, message",
        [
            pytest.param(
                params, corrupt, message, id=f"s{params.view_size}-{corrupt.__name__}"
            )
            for params in (PARAMS, WIDE)
            for corrupt, message in CORRUPTIONS
            if params.view_size <= 64 or corrupt is not ebits_bit_flip
        ],
    )
    def test_corruption_in_last_row_raises(self, params, corrupt, message):
        kernel, last = boundary_kernel(params)
        corrupt(kernel, last)
        with pytest.raises(AssertionError, match=message):
            kernel.check_invariant()


class TestSnapshotMemory:
    def test_snapshot_peaks_stay_a_fraction_of_the_id_matrix(self):
        """No whole-matrix temporaries: the paper-property snapshot's
        tracemalloc peak against the id matrix's bytes at n = 2·10⁵."""
        kernel, engine = build_sf_system(
            200_000, SFParams(view_size=40, d_low=18), seed=1, backend="array"
        )
        engine.run_actions(20_000)
        matrix = kernel.array_state()[0].nbytes
        bounds = {
            "dependent_fraction": 0.1,
            "check_invariant": 0.1,
            "degree_arrays": 0.5,
        }
        for name, bound in bounds.items():
            tracemalloc.start()
            try:
                getattr(kernel, name)()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * matrix, (name, peak / matrix)


class TestStateLayout:
    def test_id_matrix_is_int32(self):
        assert ring_kernel(8).array_state()[0].dtype == np.int32

    def test_state_bytes_per_node(self):
        """Base arrays only (the ``_flat_*`` reshapes are views of them):
        the int32 id matrix (4·s), the dependence bitmask (s) and at most
        ten 8-byte per-row columns.  A 64-bit matrix adds 4·s and fails."""
        s = 40
        n = 100_000
        kernel, _ = build_sf_system(
            n, SFParams(view_size=s, d_low=18), seed=1, backend="array"
        )
        arrays = [
            value
            for value in vars(kernel).values()
            if isinstance(value, np.ndarray) and value.base is None
        ]
        per_node = sum(value.nbytes for value in arrays) / n
        assert per_node <= 4 * s + s + 8 * 10, per_node
