"""The vectorized array kernel: the whole population in one id-matrix.

State layout (``n`` live rows, view size ``s``):

* ``ids``  — ``(capacity, s)`` int64; slot ``(r, c)`` holds a node id, or
  ``-1`` for ⊥.  Row ``r`` is the ``r``-th node of the canonical ordering.
* ``dep``  — ``(capacity, s)`` bool; the dependence bitmask (Fig 7.1
  labels, operationally: "received via duplication").
* ``outdeg``, ``sent``, ``received`` — per-row counters.
* ``node_at`` / ``row_of`` — the row ↔ node-id bijection (ids stored in
  ``ids`` are *node ids*, so views survive the swap-remove row moves of
  churn untouched, exactly like the object implementation).

Execution: a batch of ``B`` scheduler picks first draws the canonical
randomness block (:func:`repro.kernel.base.draw_action_block` — slot
sampling and loss uniforms vectorized up front), then settles the batch in
*windows*.  For each window the planner classifies every action's row
accesses as reads or writes — a self-loop (empty selected slot) only
*reads* its initiator row, a lost message never touches its target row, a
duplicating send writes nothing — and accepts every action whose reads see
no earlier write and whose writes see no earlier touch.  Accepted actions
commute with everything before them, so the whole group executes as one
fused pass of fancy-indexed scatter writes; deferred actions retry in the
next window ahead of new draws, preserving program order (a topological
order of the row-dependency DAG, hence bit-identical to sequential
execution).  One cascade guard: an action whose replay-time *target* is
genuinely unknowable (an earlier store may have filled a slot it read as
⊥ or saw emptied) could write rows no mark covers, so nothing after it
can be proven independent and acceptance truncates the window there; a
merely deferred action with firm slot reads does not truncate (see
:meth:`ArrayKernel._acceptance` for the argument).

The read/write classification and the slot-hazard-only truncation keep
accepted groups within a small factor of the birthday bound (~Θ(√n)),
and the whole plan→accept→apply cycle is a bounded number of NumPy
dispatches per window regardless of group size, so per-action Python
cost is O(1) and shrinks as the population grows.

Equivalence with :class:`repro.kernel.reference.ReferenceKernel` — same
draws, same canonical ordering, same empty-slot ranking — is enforced
slot-for-slot by ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

from repro.core.params import SFParams
from repro.kernel.base import (
    NodeId,
    SimulationKernel,
    ViewSlots,
    decide_loss,
    draw_action_block,
)
from repro.net.loss import LossModel, UniformLoss
from repro.obs import get_telemetry

EMPTY = -1

#: Hard cap on how many upcoming actions one window pre-gathers.  The live
#: window adapts to the observed group length (≈√n), since gather+plan
#: work beyond the accepted set is discarded on truncation.
_SCAN_WINDOW = 4096

#: Reversed interleaved action positions [S-1, S-1, ..., 1, 1, 0, 0]:
#: the suffix ``_POS2R[-2 * W:]`` is the entry → action-index map for a
#: W-action window laid out in *descending* entry order (within an
#: action, target access before initiator access), which lets the
#: first-write scatter run forward over contiguous arrays — numpy's
#: fancy store keeps the last occurrence, i.e. the earliest access.
_POS2R = np.repeat(np.arange(_SCAN_WINDOW - 1, -1, -1, dtype=np.int64), 2)
_ARANGE = np.arange(_SCAN_WINDOW, dtype=np.int64)

#: In-byte rank-select table: ``_BITSEL[b * 8 + r]`` = index of the
#: ``r``-th set bit of byte ``b``.
_BITSEL = np.zeros(256 * 8, dtype=np.uint64)
for _b in range(256):
    for _r, _pos in enumerate(p for p in range(8) if _b >> p & 1):
        _BITSEL[_b * 8 + _r] = _pos
del _b, _r, _pos
_ONE = np.uint64(1)

#: SWAR constants for the branch-free 64-bit rank-select below.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_L8 = np.uint64(0x0101010101010101)  # broadcast a byte to all 8 lanes
_L8X8 = np.uint64(0x0808080808080808)  # cumulative-sum multiplier, pre-×8
_H8 = np.uint64(0x8080808080808080)  # per-byte sign bits
_B1 = np.uint64(1)
_B2 = np.uint64(2)
_B3 = np.uint64(3)
_B4 = np.uint64(4)
_B7 = np.uint64(7)
_B8 = np.uint64(8)
_B56 = np.uint64(56)
_BFF = np.uint64(0xFF)

#: ``[[0], [1]]``: broadcasting ``c - _ROWS01`` yields the stacked
#: ``(2, k)`` slot-count matrix ``[c; c - 1]`` in one op.
_ROWS01 = np.arange(2, dtype=np.int64).reshape(2, 1)
#: Shared empty row-index array for skipping per-window counter updates.
_NO_ROWS = np.empty(0, dtype=np.int64)


def _select_empty_pair(ebits_vals, ranks2):
    """Vectorized double rank-select: the ``r``-th lowest set bit per word.

    ``ebits_vals`` are the ``k`` target rows' empty-slot bitmasks (bit
    ``c`` set iff slot ``c`` is ⊥) and ``ranks2`` a ``(2, k)`` uint64
    matrix of ranks — row 0 the first store's rank per target, row 1 the
    second's — so this answers "the ``r``-th lowest-indexed empty slot"
    (the canonical store discipline) twice per row without re-scanning
    the id matrix.  Pure elementwise uint64 arithmetic (no axis-1
    reductions, which dominate the cost at window-sized inputs): a SWAR
    popcount gives per-byte counts, one ``* _L8`` multiply turns them
    into cumulative sums in byte lanes, and a per-byte ``<=`` against the
    broadcast rank (valid because both operands are < 128) locates the
    byte; a 2048-entry LUT finishes inside it.  The shared per-word work
    stays ``(k,)`` and broadcasts against the ``(2, k)`` ranks — no
    stacked copies.  Returns the ``(2, k)`` selected slots as uint64.
    """
    v = ebits_vals
    x = v - ((v >> _B1) & _M1)
    x = (x & _M2) + ((x >> _B2) & _M2)
    x = (x + (x >> _B4)) & _M4
    pref = x * _L8  # byte i = popcount of bytes 0..i
    le = (((ranks2 * _L8) | _H8) - pref) & _H8  # sign bit i: pref_i <= rank
    idx8 = ((le >> _B7) * _L8X8) >> _B56  # 8 * selected byte index
    before = ((pref << _B8) >> idx8) & _BFF
    byte = (v >> idx8) & _BFF
    return idx8 + _BITSEL.take((byte << _B3) + (ranks2 - before))


class ArrayKernel(SimulationKernel):
    """S&F over a single ``(n, s)`` numpy id-matrix with fused batch ops."""

    #: Telemetry namespace; the sharded subclass overrides it so its
    #: batches/actions counters stay distinguishable.
    _metric_prefix = "kernel.array"

    def __init__(self, params: SFParams, capacity: int = 64):
        super().__init__(params)
        s = params.view_size
        capacity = max(capacity, 1)
        self._n = 0
        self._ids = self._alloc("ids", (capacity, s), np.int64, EMPTY)
        self._dep = self._alloc("dep", (capacity, s), np.bool_, 0)
        self._outdeg = self._alloc("outdeg", (capacity,), np.int64, 0)
        self._sent = self._alloc("sent", (capacity,), np.int64, 0)
        self._received = self._alloc("received", (capacity,), np.int64, 0)
        self._node_at = self._alloc("node_at", (capacity,), np.int64, 0)
        # Per-row empty-slot bitmask (bit c set iff slot c is ⊥): turns the
        # receive step's empty-slot scan into one 8-byte load per target.
        # Views wider than 64 slots fall back to scanning the id matrix.
        self._ebits = (
            self._alloc("ebits", (capacity,), np.uint64, 0) if s <= 64 else None
        )
        # Dense id → row index (-1 = not live).  Node ids must therefore be
        # small nonnegative integers; the index makes the per-window target
        # lookup one fancy-indexing gather instead of a dict loop.
        self._id_index = np.full(capacity, -1, dtype=np.int64)
        self._window_hint = 64
        self._acc_ewma = 64.0
        # Acceptance scratch: preallocated interleave buffers (descending
        # entry order, target/initiator pairs) and the mark-round counter
        # for the epoch-shifted first-write marks (see _acceptance).
        self._rows2_buf = np.empty(2 * _SCAN_WINDOW, dtype=np.int64)
        self._df_buf = np.empty(2 * _SCAN_WINDOW, dtype=np.bool_)
        self._mark_round = 0
        # Per-batch staging for sent/received rows: the counters are not
        # read inside a batch, so the duplicate-safe (and comparatively
        # slow) np.add.at runs once per batch instead of once per window.
        self._sent_rows: list = []
        self._recv_rows: list = []
        self._rebuild_scratch()

    # -- storage ------------------------------------------------------------

    def _alloc(self, name: str, shape, dtype, fill) -> np.ndarray:
        """Allocate one state array (subclass hook: sharded memory)."""
        return np.full(shape, fill, dtype=dtype)

    def _free(self, name: str, array: np.ndarray) -> None:
        """Release one state array replaced by :meth:`_grow` (hook)."""

    def _rebuild_scratch(self) -> None:
        """(Re)derive capacity-sized views and planner scratch arrays."""
        capacity = self._ids.shape[0]
        self._flat_ids = self._ids.reshape(-1)
        self._flat_dep = self._dep.reshape(-1)
        # Row-position marks for the window planner; index ``capacity`` is
        # the dummy row absorbing inactive target accesses.  Zero-filled:
        # the epoch-shifted mark bands are strictly negative (round ≥ 1),
        # so untouched rows always read as "no write".
        self._dtouch = np.zeros(capacity + 1, dtype=np.int64)
        self._smark = np.zeros(capacity + 1, dtype=np.int64)
        self._cmark = np.zeros(capacity + 1, dtype=np.int64)

    # -- population management --------------------------------------------

    @property
    def population(self) -> int:
        return self._n

    def node_ids(self) -> List[NodeId]:
        return self._node_at[: self._n].tolist()

    def has_node(self, node_id: NodeId) -> bool:
        return 0 <= node_id < self._id_index.shape[0] and self._id_index[node_id] >= 0

    def _grown_names(self):
        names = ["ids", "dep", "outdeg", "sent", "received", "node_at"]
        if self._ebits is not None:
            names.append("ebits")
        return names

    def _grow(self) -> None:
        capacity = self._ids.shape[0] * 2
        for name in self._grown_names():
            old = getattr(self, "_" + name)
            shape = (capacity,) + old.shape[1:]
            fill = EMPTY if name == "ids" else 0
            new = self._alloc(name, shape, old.dtype, fill)
            new[: old.shape[0]] = old
            setattr(self, "_" + name, new)
            self._free(name, old)
        self._rebuild_scratch()

    def _grow_id_index(self, node_id: NodeId) -> None:
        size = max(self._id_index.shape[0] * 2, node_id + 1)
        new = np.full(size, -1, dtype=np.int64)
        new[: self._id_index.shape[0]] = self._id_index
        self._id_index = new

    def add_node(self, node_id: NodeId, bootstrap_ids: Sequence[NodeId]) -> None:
        if node_id < 0:
            raise ValueError(
                f"array kernel requires nonnegative node ids, got {node_id}"
            )
        if self.has_node(node_id):
            raise ValueError(f"node {node_id} already exists")
        ids = list(bootstrap_ids)
        if any(x < 0 for x in ids):
            raise ValueError("array kernel requires nonnegative bootstrap ids")
        self.params.validate_bootstrap(len(ids))
        if self._n == self._ids.shape[0]:
            self._grow()
        # The id index must cover every id any view can hold, so that a
        # plain index gather resolves targets (-1 = departed/unknown).
        peak = max([node_id] + ids)
        if peak >= self._id_index.shape[0]:
            self._grow_id_index(peak)
        row = self._n
        self._ids[row] = EMPTY
        self._ids[row, : len(ids)] = ids
        self._dep[row] = False
        self._outdeg[row] = len(ids)
        self._sent[row] = 0
        self._received[row] = 0
        self._node_at[row] = node_id
        self._id_index[node_id] = row
        if self._ebits is not None:
            self._ebits[row] = self._full_mask() & ~np.uint64((1 << len(ids)) - 1)
        self._n += 1

    def _full_mask(self) -> np.uint64:
        s = self.params.view_size
        return np.uint64((1 << s) - 1 if s < 64 else 2**64 - 1)

    def add_nodes(self, node_ids, bootstrap_matrix) -> None:
        """Vectorized bulk join: row ``r`` joins ``node_ids[r]`` with the
        bootstrap view ``bootstrap_matrix[r]`` (all views the same size).

        State-identical to calling :meth:`add_node` in a loop — no
        randomness is involved — but O(1) NumPy calls, which is what makes
        10⁶-node populations constructible in well under a second.
        """
        node_ids = np.ascontiguousarray(node_ids, dtype=np.int64)
        boot = np.ascontiguousarray(bootstrap_matrix, dtype=np.int64)
        m = node_ids.shape[0]
        if boot.ndim != 2 or boot.shape[0] != m:
            raise ValueError("bootstrap_matrix must be (len(node_ids), k)")
        k = boot.shape[1]
        self.params.validate_bootstrap(k)
        if m == 0:
            return
        if node_ids.min() < 0 or boot.min() < 0:
            raise ValueError("array kernel requires nonnegative node ids")
        if np.unique(node_ids).size != m:
            raise ValueError("duplicate node ids in bulk join")
        in_index = node_ids[node_ids < self._id_index.shape[0]]
        if in_index.size and (self._id_index[in_index] >= 0).any():
            live = in_index[self._id_index[in_index] >= 0]
            raise ValueError(f"node {int(live[0])} already exists")
        while self._n + m > self._ids.shape[0]:
            self._grow()
        peak = int(max(node_ids.max(), boot.max()))
        if peak >= self._id_index.shape[0]:
            self._grow_id_index(peak)
        rows = np.arange(self._n, self._n + m)
        self._ids[rows] = EMPTY
        self._ids[rows, :k] = boot
        self._dep[rows] = False
        self._outdeg[rows] = k
        self._sent[rows] = 0
        self._received[rows] = 0
        self._node_at[rows] = node_ids
        self._id_index[node_ids] = rows
        if self._ebits is not None:
            self._ebits[rows] = self._full_mask() & ~np.uint64((1 << k) - 1)
        self._n += m

    def remove_node(self, node_id: NodeId) -> None:
        if not self.has_node(node_id):
            raise KeyError(f"unknown node {node_id}")
        row = int(self._id_index[node_id])
        self._id_index[node_id] = -1
        last = self._n - 1
        if row != last:
            self._ids[row] = self._ids[last]
            self._dep[row] = self._dep[last]
            self._outdeg[row] = self._outdeg[last]
            self._sent[row] = self._sent[last]
            self._received[row] = self._received[last]
            if self._ebits is not None:
                self._ebits[row] = self._ebits[last]
            moved = int(self._node_at[last])
            self._node_at[row] = moved
            self._id_index[moved] = row
        self._n = last

    # -- execution ---------------------------------------------------------

    def run_batch(self, count: int, rng, loss: LossModel, engine_stats) -> None:
        if self._n == 0:
            raise RuntimeError("no live nodes to schedule")
        if count <= 0:
            return
        tel = get_telemetry()
        if tel.metrics_on:
            tel.inc(self._metric_prefix + ".batches")
            tel.inc(self._metric_prefix + ".actions", count)
        draws = draw_action_block(rng, count, self._n, self.params.view_size)
        engine_stats.actions += count
        self.stats.actions += count
        # Batch-level precomputation for the window planner: flat slot
        # indices (row * s + slot) feed the gathers and the clear writes
        # directly, and the combined clear bitmask is ready for ebits —
        # a handful of ops here replaces per-window recomputation.
        s = self.params.view_size
        base = draws.initiators * s
        bi = base + draws.slot_i
        bj = base + draws.slot_j
        if self._ebits is not None:
            shm = (_ONE << draws.slot_i.astype(np.uint64)) | (
                _ONE << draws.slot_j.astype(np.uint64)
            )
        else:
            shm = None  # s > 64: ebits disabled, masks never used
        # Uniform loss is decided for the whole batch in one masked op;
        # other models are consulted per message, in action order.
        if isinstance(loss, UniformLoss):
            lost_all = draws.loss_u < loss.rate
            self._run_unordered(draws, bi, bj, shm, lost_all, engine_stats, count)
        else:
            self._run_inorder(draws, bi, bj, shm, loss, rng, engine_stats, count)
        self._flush_counts()

    # -- planning ----------------------------------------------------------

    def _gather_plan(self, u, bi, bj, lost):
        """Gather pre-window state and classify each action's row accesses.

        ``bi``/``bj`` are the actions' flat slot indices (row * s + slot),
        precomputed once per batch.  Returns per-action arrays valid
        exactly when the action's reads are (initiator row always; target
        row iff it delivers):

        * ``vi``/``vj`` — selected slot contents (< 0 = ⊥);
        * ``noop`` — self-loop transformation, reads the initiator only;
        * ``t_row`` — live row of the target id (garbage when ``noop``);
        * ``dup`` — duplication branch, writes nothing;
        * ``writes_u`` — clears its own slots (non-noop, non-dup);
        * ``delivers`` — target is read (message survives to a live row);
        * ``cap`` — target's empty slots at delivery time (own clears of a
          self-delivery already discounted);
        * ``writes_t`` — stores land (all-or-nothing capacity gate holds).

        ``lost=None`` plans conservatively (assume nothing is lost) for
        the in-order path, whose loss verdicts arrive only at apply time.
        """
        s = self.params.view_size
        flat_ids = self._flat_ids
        vi = flat_ids.take(bi)
        vj = flat_ids.take(bj)
        # ids are nonnegative and ⊥ is -1, so the sign of (vi | vj) tests
        # "either slot empty" in one op.
        noop = (vi | vj) < 0
        t_row = self._id_index.take(np.maximum(vi, 0))
        dup = self._outdeg.take(u) <= self.params.d_low
        writes_u = ~(noop | dup)
        delivers = ~noop & (t_row >= 0)
        if lost is not None:
            delivers &= ~lost
        cap = s - self._outdeg.take(np.maximum(t_row, 0))
        # Self-deliveries (a node's own id in its view) are rare: only pay
        # for the capacity correction (own clears land before own stores)
        # when the window actually contains one.
        selfd = delivers & (t_row == u)
        if selfd.any():
            cap = cap + 2 * (selfd & writes_u)
        writes_t = delivers & (cap >= 2)
        return vi, vj, noop, t_row, dup, writes_u, delivers, cap, writes_t

    def _acceptance(self, u, t_row, noop, delivers, writes_u, writes_t):
        """Which window actions commute with everything before them.

        Per entry (initiator access at even positions, target at odd, both
        carrying their action's index), a reversed fancy-index scatter
        computes the first *write* of every row this window (numpy stores
        in index order, so no argsort is needed); an action is accepted
        iff each of its reads precedes the row's first write.  Because
        every action's write rows are also read rows (a clear reads its
        own slots, a store reads the target's capacity and empty set),
        read-freshness alone already excludes write-write collisions among
        accepted actions — the fused scatter never double-writes a row.

        Two refinements keep deferred actions sequentially consistent:

        * an accepted writer must not clobber a row an earlier *deferred*
          action has read (that action re-gathers next window and would
          see the future); rejecting such writers can defer new readers,
          so the check iterates to a (monotone, hence terminating)
          fixpoint — almost always one extra pass;
        * a deferred action re-gathers next window, and later accepted
          actions are only safe if every row it might then write is
          already marked.  Its target row is ``id_index[vi]``, so the
          guard must truncate exactly where ``vi``/``vj`` themselves are
          in doubt: a store into the initiator row can change what the
          action reads only if the slot it lands in was empty, i.e. the
          action was noop-classified (read ⊥) or an earlier clear opened
          the row (clear-then-refill).  A clear alone leaves the true
          read ⊥ (a benign noop next window); a store into an untouched
          non-noop row cannot move occupied slots — ``vi``/``vj`` and
          hence the target stay firm, the cause of any dup/capacity flip
          has itself marked the affected row, and the action is merely
          deferred without cutting the window.  So the guard truncates at
          the first store-touched initiator that is noop or clear-touched
          — both tests fall out of the marks already computed above.
        """
        W = u.shape[0]
        dummy = self._smark.shape[0] - 1
        rt = np.where(delivers, t_row, dummy)
        # Entries in descending action order (target access ahead of its
        # initiator access): a plain forward fancy store then leaves each
        # row's *earliest* access, with no sort.  The interleaves land in
        # preallocated buffers — np.stack costs several dispatches per
        # call; two strided stores cost two.
        rows2 = self._rows2_buf[: 2 * W]
        rows2[0::2] = rt[::-1]
        rows2[1::2] = u[::-1]
        pos2 = _POS2R[-2 * W:]
        posw = pos2[1::2]
        # Epoch-shifted marks: round r stores position - r*_SCAN_WINDOW and
        # reads compare against k - r*_SCAN_WINDOW, so any mark left from
        # an earlier round sits above the whole comparison band and reads
        # as "no write this round" — rows touched in previous windows need
        # no sentinel reset scatter.  (positions < _SCAN_WINDOW make the
        # bands disjoint; the counter is int64, overflow is unreachable.)
        # The marks record *potential* writes, not planned ones: a
        # deferred action replays against post-window state, where a
        # dup/capacity flip can turn a planned no-clear into a clear or a
        # planned deletion into a store.  Marking every non-noop action
        # as a possible clearer of its slots and every delivering action
        # as a possible storer keeps each replay write inside the marked
        # set, at the price of slightly over-deferring.
        self._mark_round += 1
        shift = self._mark_round * _SCAN_WINDOW
        nnr = ~noop[::-1]
        si = np.flatnonzero(delivers[::-1])
        smark = self._smark
        smark[rows2[0::2].take(si)] = posw.take(si) - shift
        ci = np.flatnonzero(nnr)
        cmark = self._cmark
        cmark[rows2[1::2].take(ci)] = posw.take(ci) - shift
        k = _ARANGE[:W] - shift
        su_ok = smark.take(u) >= k
        cu_ok = cmark.take(u) >= k
        read_u_ok = su_ok & cu_ok
        # Non-delivering entries point at the dummy row, which is never
        # written and therefore always reads as stale/no-write, so the
        # target-read check passes for them without a ~delivers guard.
        acc = read_u_ok & (smark.take(rt) >= k) & (cmark.take(rt) >= k)
        if not su_ok.all():
            # Cascade guard: only initiators whose slot contents are in
            # genuine doubt (an earlier store may have (re)filled a slot
            # this action read as ⊥ or saw emptied) cut the window.
            # safe = su_ok | (~noop & cu_ok); nnr[::-1] is ~noop forward.
            safe = su_ok | (nnr[::-1] & cu_ok)
            if not safe.all():
                acc[np.argmin(safe):] = False
        n_acc = int(np.count_nonzero(acc))
        if n_acc == W or bool(acc[:n_acc].all()):
            # The accepted set is a pure prefix (the overwhelmingly common
            # case): every deferred action comes after every accepted one,
            # so no accepted writer can precede a deferred reader and the
            # refinement below cannot reject anything.
            return acc, n_acc, True
        dtouch = self._dtouch
        df = self._df_buf[: 2 * W]
        while n_acc < W:
            # First deferred touch per row; writers earlier than it stand.
            # Same epoch discipline as wmark, bumped per iteration.
            self._mark_round += 1
            dshift = self._mark_round * _SCAN_WINDOW
            nacc_r = ~acc[::-1]
            df[0::2] = nacc_r
            df[1::2] = nacc_r
            di = np.flatnonzero(df)
            dtouch[rows2.take(di)] = pos2.take(di) - dshift
            kd = _ARANGE[:W] - dshift
            acc &= (~writes_u | (dtouch.take(u) >= kd)) & (
                ~writes_t | (dtouch.take(rt) >= kd)
            )
            new_n = int(np.count_nonzero(acc))
            if new_n == n_acc:
                break
            n_acc = new_n
        return acc, n_acc, False

    def _adapt_window(self, accepted: int, window: int) -> None:
        # The accepted group length is bounded by the cascade guard's
        # first genuine slot hazard (~Θ(√n) by the birthday bound)
        # regardless of how far the window scans, but the per-window
        # fixed cost (tens of NumPy dispatches) rewards planning a bit
        # past the typical group: track an EWMA of the accepted count and
        # over-plan by 1.35× (measured optimum — larger factors gather
        # mostly-truncated tails, smaller ones starve the window).  The
        # smoothing matters — feeding raw ``accepted`` back into the hint
        # oscillates (one lucky window inflates the next, whose truncation
        # crashes the hint back down).
        if accepted == window and window < self._window_hint:
            return  # a batch's small remainder window carries no signal
        e = self._acc_ewma
        e += (accepted - e) * 0.25
        self._acc_ewma = e
        self._window_hint = min(_SCAN_WINDOW, max(16, int(e * 1.35)))

    def _run_unordered(self, draws, bi_all, bj_all, shm_all, lost_all,
                       engine_stats, count):
        """Dependency-DAG settlement for precomputable loss decisions.

        Windows of upcoming actions are planned, the accepted group is
        applied in one fused pass, and deferred actions retry in the next
        window ahead of new draws.  Requires the loss verdict of every
        message upfront (``lost_all``): stateful models consume their aux
        stream in action order and must use :meth:`_run_inorder`.
        """
        pos = 0
        pending = None
        while pos < count or (pending is not None and pending.size):
            p = 0 if pending is None else pending.size
            take = min(max(self._window_hint - p, 0), count - pos)
            fresh = np.arange(pos, pos + take)
            win_idx = np.concatenate([pending, fresh]) if p else fresh
            pos += take
            u = draws.initiators.take(win_idx)
            bi = bi_all.take(win_idx)
            bj = bj_all.take(win_idx)
            shm = shm_all.take(win_idx) if shm_all is not None else None
            lost = lost_all.take(win_idx)
            vi, vj, noop, t_row, dup, writes_u, delivers, cap, writes_t = (
                self._gather_plan(u, bi, bj, lost)
            )
            acc, n_acc, prefix = self._acceptance(
                u, t_row, noop, delivers, writes_u, writes_t
            )
            self._apply_group(
                acc, n_acc, win_idx, u, bi, bj, shm, vj, t_row, noop, dup,
                writes_u, lost, delivers, cap, writes_t, draws.store_u,
                engine_stats,
            )
            # A prefix acceptance (the common case) defers exactly the
            # window's tail — a view, not a mask pass.
            pending = win_idx[n_acc:] if prefix else win_idx[~acc]
            self._adapt_window(n_acc, win_idx.size)

    def _run_inorder(self, draws, bi_all, bj_all, shm_all, loss, rng,
                     engine_stats, count):
        """Strict in-order execution in maximal conflict-free prefixes.

        Used for loss models whose per-message decisions are stateful or
        pair-dependent (e.g. Gilbert–Elliott): the verdicts must be drawn
        in action order, so actions cannot be reordered even when their
        row accesses commute.  Planning assumes conservatively that no
        message is lost; the accepted prefix then has its losses decided
        sequentially and is applied in the same fused pass as the
        unordered path.
        """
        pos = 0
        while pos < count:
            take = min(count - pos, self._window_hint)
            sl = slice(pos, pos + take)
            u = draws.initiators[sl]
            bi = bi_all[sl]
            bj = bj_all[sl]
            shm = shm_all[sl] if shm_all is not None else None
            vi, vj, noop, t_row, dup, writes_u, delivers, cap, writes_t = (
                self._gather_plan(u, bi, bj, None)
            )
            acc, _, _ = self._acceptance(
                u, t_row, noop, delivers, writes_u, writes_t
            )
            accepted = int(take if acc.all() else acc.argmin())
            # Decide losses for the prefix in action order (the canonical
            # discipline: stateless pair rates read the pre-drawn uniform,
            # stateful models draw from the shared auxiliary generator).
            lost = np.zeros(take, dtype=bool)
            msg = np.flatnonzero(~noop[:accepted])
            if msg.size:
                senders = self._node_at.take(u.take(msg)).tolist()
                targets = vi.take(msg).tolist()
                u_vals = draws.loss_u[pos:].take(msg).tolist()
                lost[msg] = [
                    decide_loss(loss, sender, target, u_val, self, rng)
                    for sender, target, u_val in zip(senders, targets, u_vals)
                ]
            # Re-derive the delivery masks from the actual verdicts (the
            # plan assumed lossless; real deliveries are a subset).
            delivers &= ~lost
            cap = (
                self.params.view_size
                - self._outdeg.take(np.maximum(t_row, 0))
                + 2 * (delivers & (t_row == u) & writes_u)
            )
            writes_t = delivers & (cap >= 2)
            prefix = np.zeros(take, dtype=bool)
            prefix[:accepted] = True
            win_idx = np.arange(pos, pos + take)
            self._apply_group(
                prefix, accepted, win_idx, u, bi, bj, shm, vj, t_row, noop,
                dup, writes_u, lost, delivers, cap, writes_t, draws.store_u,
                engine_stats,
            )
            pos += accepted
            self._adapt_window(accepted, take)

    # -- apply -------------------------------------------------------------

    def _apply_group(
        self, acc, n_acc, win_idx, u, bi, bj, shm, vj, t_row, noop, dup,
        writes_u, lost, delivers, cap, writes_t, store_u, engine_stats,
    ) -> None:
        """Execute one group of mutually commuting actions in a fused pass.

        ``acc`` masks the accepted window positions (self-loops included,
        ``n_acc`` their count); every other argument is a window-level
        array from the planner, except ``store_u`` (the full batch
        uniforms, indexed through ``win_idx``).  Reduces the group to
        scatter index/value arrays and hands them to
        :meth:`_scatter_group` (subclass seam: the sharded kernel ships
        them to shard-owning workers instead).
        """
        stats = self.stats
        # One flatnonzero per mask, then cheap take-gathers: boolean fancy
        # indexing rescans the mask on every extraction, and the masks
        # here feed up to seven extractions each.
        mi = np.flatnonzero(acc & ~noop)
        n_msg = mi.size
        stats.self_loops += n_acc - n_msg
        if n_msg == 0:
            return
        um = u.take(mi)
        stats.non_self_loop_actions += n_msg
        stats.messages_sent += n_msg
        engine_stats.messages_sent += n_msg
        n_lost = int(np.count_nonzero(lost.take(mi)))
        engine_stats.messages_lost += n_lost

        # Fig 5.1 left, line 7: clear both slots unless duplicating.
        ci = mi.take(np.flatnonzero(writes_u.take(mi)))
        # Accepted non-noop actions either clear or duplicate, so the
        # duplication count is the complement of the clear set.
        stats.duplications += n_msg - ci.size
        rows_c = u.take(ci)
        bi_c = bi.take(ci)
        bj_c = bj.take(ci)
        shm_c = shm.take(ci) if shm is not None else None

        rows_d = t_row.take(mi.take(np.flatnonzero(delivers.take(mi))))
        n_deliver = rows_d.size
        # Arrived messages split into live targets (delivered) and departed
        # ones, so the departed count needs no extra scan.
        engine_stats.messages_to_departed += n_msg - n_lost - n_deliver
        engine_stats.messages_delivered += n_deliver
        stats.deliveries += n_deliver

        # Fig 5.1 right: all-or-nothing capacity gate, then ranked stores.
        si = mi.take(np.flatnonzero(writes_t.take(mi)))
        rows_s = t_row.take(si)
        stats.deletions += n_deliver - rows_s.size
        self._scatter_group(
            um,
            rows_c,
            bi_c,
            bj_c,
            shm_c,
            rows_d,
            rows_s,
            cap.take(si),
            store_u[win_idx.take(si)],
            self._node_at.take(u.take(si)),  # first stored id: the sender's
            vj.take(si),
            dup.take(si),
        )

    def _scatter_group(
        self, um, rows_c, bi_c, bj_c, shm_c, rows_d, rows_s, c, su,
        first_ids, second_ids, flags,
    ) -> None:
        # Stage the counter rows for the per-batch np.add.at flush and
        # skip them in the fused scatter (sent/received are write-only
        # inside a batch; see run_batch).  The sharded kernel overrides
        # this seam and ships the real rows to its workers instead.
        self._sent_rows.append(um)
        if rows_d.size:
            self._recv_rows.append(rows_d)
        apply_scatter(
            self._flat_ids, self._flat_dep, self._outdeg, self._sent,
            self._received, self._ids, self._ebits, self.params.view_size,
            _NO_ROWS, rows_c, bi_c, bj_c, shm_c, _NO_ROWS, rows_s, c, su,
            first_ids, second_ids, flags,
        )

    def _flush_counts(self) -> None:
        """Batch-end accumulation of the staged sent/received rows."""
        if self._sent_rows:
            np.add.at(self._sent, np.concatenate(self._sent_rows), 1)
            self._sent_rows.clear()
        if self._recv_rows:
            np.add.at(self._received, np.concatenate(self._recv_rows), 1)
            self._recv_rows.clear()

    # -- observation -------------------------------------------------------

    def _row(self, node_id: NodeId) -> int:
        if not self.has_node(node_id):
            raise KeyError(f"unknown node {node_id}")
        return int(self._id_index[node_id])

    def view_of(self, node_id: NodeId) -> Counter:
        row = self._ids[self._row(node_id)]
        return Counter(row[row != EMPTY].tolist())

    def view_slots(self, node_id: NodeId) -> ViewSlots:
        row = self._row(node_id)
        return tuple(
            None if node == EMPTY else (node, dependent)
            for node, dependent in zip(
                self._ids[row].tolist(), self._dep[row].tolist()
            )
        )

    def outdegree(self, node_id: NodeId) -> int:
        return int(self._outdeg[self._row(node_id)])

    def degree_arrays(self):
        """Vectorized ``(outdegrees, indegrees)`` over live nodes, row order.

        The fast path behind :func:`repro.metrics.degrees.degree_summary`:
        indegrees are one ``np.bincount`` over the live portion of the
        id-matrix — no sort, no per-node Counter walks.  The count vector
        is indexed by id (offset one so ⊥ lands in a discarded bucket),
        which the dense id → row index guarantees is small.
        """
        n = self._n
        out = self._outdeg[:n].copy()
        counts = np.bincount(
            self._ids[:n].ravel() + 1, minlength=self._id_index.shape[0] + 1
        )
        indeg = counts[1:].take(self._node_at[:n]).astype(np.int64)
        return out, indeg

    def indegrees(self) -> Dict[NodeId, int]:
        _, indeg = self.degree_arrays()
        return dict(zip(self.node_ids(), indeg.tolist()))

    def array_state(self):
        """``(ids, node_at)`` live slices for metrics fast paths (read-only)."""
        return self._ids[: self._n], self._node_at[: self._n]

    def view_ids_array(self, node_id: NodeId) -> np.ndarray:
        """Nonempty ids of one view as an array (uniformity fast path)."""
        row = self._ids[self._row(node_id)]
        return row[row != EMPTY]

    def load_counts(self, kind: str) -> Dict[NodeId, int]:
        counts = self._sent if kind == "sent" else self._received
        counts = counts[: self._n]
        rows = np.flatnonzero(counts)
        return dict(
            zip(self._node_at.take(rows).tolist(), counts.take(rows).tolist())
        )

    def reset_load_counts(self, kind: str) -> None:
        (self._sent if kind == "sent" else self._received)[: self._n] = 0

    def dependent_fraction(self) -> float:
        """Empirical ``1 − α`` in one vectorized pass.

        Labels, self-edges, and "all but the first copy" of an in-view
        duplicate, exactly as the object implementation counts them; the
        first-copy scan is a stable per-row argsort (equal ids keep slot
        order), so no O(s²) broadcasting and no per-node dict churn.
        """
        n = self._n
        if n == 0:
            return 0.0
        ids = self._ids[:n]
        nonempty = ids != EMPTY
        total = int(np.count_nonzero(nonempty))
        if total == 0:
            return 0.0
        labeled = self._dep[:n] & nonempty
        self_edge = (ids == self._node_at[:n, None]) & ~labeled
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_ids = np.take_along_axis(ids, order, axis=1)
        repeat_sorted = np.zeros_like(nonempty)
        repeat_sorted[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
        duplicate = np.zeros_like(nonempty)
        np.put_along_axis(duplicate, order, repeat_sorted, axis=1)
        duplicate &= nonempty & ~labeled & ~self_edge
        dependent = int(labeled.sum()) + int(self_edge.sum()) + int(duplicate.sum())
        return dependent / total

    def check_invariant(self) -> None:
        n = self._n
        ids = self._ids[:n]
        outdeg = self._outdeg[:n]
        if not np.array_equal((ids != EMPTY).sum(axis=1), outdeg):
            raise AssertionError("outdegree counter out of sync with id-matrix")
        if (outdeg % 2).any():
            rows = np.nonzero(outdeg % 2)[0]
            raise AssertionError(
                f"node {int(self._node_at[rows[0]])} has odd outdegree "
                f"{int(outdeg[rows[0]])}"
            )
        low, high = self.params.d_low, self.params.view_size
        if ((outdeg < low) | (outdeg > high)).any():
            rows = np.nonzero((outdeg < low) | (outdeg > high))[0]
            raise AssertionError(
                f"node {int(self._node_at[rows[0]])} outdegree "
                f"{int(outdeg[rows[0]])} outside [{low}, {high}]"
            )
        if self._dep[:n][ids == EMPTY].any():
            raise AssertionError("dependence bit set on an empty slot")
        live = np.flatnonzero(self._id_index >= 0)
        if live.size != n:
            raise AssertionError("id index size out of sync with population")
        rows = self._id_index[live]
        if (rows >= n).any() or not np.array_equal(self._node_at[rows], live):
            raise AssertionError("id index out of sync with node_at")
        if self._ebits is not None:
            want = (
                (ids == EMPTY).astype(np.uint64)
                << np.arange(self.params.view_size, dtype=np.uint64)
            ).sum(axis=1, dtype=np.uint64)
            if not np.array_equal(self._ebits[:n], want):
                raise AssertionError("empty-slot bitmask out of sync with ids")


def apply_scatter(
    flat_ids, flat_dep, outdeg, sent, received, ids2d, ebits, s,
    um, rows_c, bi_c, bj_c, shm_c, rows_d, rows_s, c, su,
    first_ids, second_ids, flags,
) -> None:
    """Apply one planned group's writes to (possibly shared) kernel state.

    The single write-side implementation shared by :class:`ArrayKernel`
    (own arrays) and the sharded kernel's workers (shared-memory views):

    * ``um`` — initiator rows of message-bearing actions (``sent`` +1;
      duplicates possible — two duplicating sends from one row commute;
      empty when the caller batches its counter updates itself);
    * ``rows_c``/``bi_c``/``bj_c``/``shm_c`` — rows cleared by
      non-duplicating sends, their two flat slot indices (row * s + slot)
      and the combined empty-bit mask (``None`` iff ``ebits`` is);
    * ``rows_d`` — delivered-to rows (``received`` +1, duplicates possible
      when an earlier delivery to the row was deleted; may be empty like
      ``um``);
    * ``rows_s``/``c``/``su``/``first_ids``/``second_ids``/``flags`` —
      accepted stores: target rows, their empty-slot counts, the ``(k,2)``
      rank uniforms, the stored ids, and the dependence flags.

    Clears run before stores so a self-delivery ranks its empty slots
    after its own clear, exactly like the sequential implementation.
    Acceptance guarantees no two clears and no two stores share a row, so
    the fancy-indexed writes never collide; only ``sent``/``received``
    need duplicate-safe accumulation.
    """
    if rows_c.size:
        cidx = np.concatenate([bi_c, bj_c])
        flat_ids[cidx] = EMPTY
        flat_dep[cidx] = False
        outdeg[rows_c] -= 2
        if ebits is not None:
            ebits[rows_c] |= shm_c
    if um.size:
        np.add.at(sent, um, 1)
    if rows_d.size:
        np.add.at(received, rows_d, 1)
    if rows_s.size:
        # The second rank is drawn among the empties left after the first
        # store; shifting it past the first rank maps both into the
        # pre-store ranking, so one ranking serves both lookups.  Both
        # ranks go through one stacked (2, k) pass: floor(u * m) capped at
        # m - 1 with m = c for the first store and m = c - 1 for the
        # second (row 1 of ``c - _ROWS01``).
        cs = c - _ROWS01
        ks = np.minimum((su.T * cs).astype(np.int64), cs - 1)
        k2 = ks[1]
        k2 += k2 >= ks[0]
        if ebits is not None:
            ev = ebits.take(rows_s)
            slots2 = _select_empty_pair(ev, ks.astype(np.uint64))
            sh = _ONE << slots2
            ebits[rows_s] = ev & ~(sh[0] | sh[1])
            slots2 = slots2.astype(np.int64)
        else:
            # Wide-view fallback: row-major nonzero lists each row's empty
            # slots in index order; an offset cumsum turns rank-within-row
            # into rank-within-list.
            empty_cols = np.nonzero(ids2d.take(rows_s, axis=0) == EMPTY)[1]
            starts = np.cumsum(c) - c
            slots2 = np.concatenate(
                [empty_cols.take(starts + ks[0]), empty_cols.take(starts + k2)]
            ).reshape(2, -1)
        sidx = rows_s * s + slots2
        flat_ids[sidx[0]] = first_ids
        flat_ids[sidx[1]] = second_ids
        flat_dep[sidx] = flags
        outdeg[rows_s] += 2
