"""Shared-memory sharded kernel: million-node state, multi-process apply.

:class:`ShardedKernel` keeps the whole population in
:mod:`multiprocessing.shared_memory` blocks instead of private process
memory.  The planner — gather, classification, acceptance — runs in the
parent exactly as in :class:`~repro.kernel.array.ArrayKernel` (same code,
same draws, hence bit-exact), but the fused apply pass is *sharded*: the
row space is partitioned into ``W`` contiguous shards, each owned by a
worker process that maps the same shared blocks, and every accepted
group's scatter writes are routed to the worker owning their target row.

Routing is deterministic and exact: acceptance guarantees no two accepted
clears and no two accepted stores share a row, and the remaining
counters (``sent``/``received``) are per-row accumulations, so
partitioning the scatter index arrays by row ownership partitions the
writes themselves — workers never contend on a row, and the sharded
apply is byte-identical to the single-process one.  The parent blocks on
every worker's acknowledgement before planning the next window, which
gives the same read-after-write visibility the array kernel gets for
free.

The point on a many-core machine is parallel apply bandwidth; the point
everywhere is *capacity*: state lives in named shared blocks sized to the
population (61 MiB of ids at n=10⁶, s=16), so a full million-node round
fits in RAM with no per-node Python objects at all.  Phase timers
``phase.shard_plan`` and ``phase.shard_apply`` report where the wall time
goes (see :mod:`repro.obs`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.core.params import SFParams
from repro.kernel.array import ArrayKernel, apply_scatter
from repro.obs import get_telemetry

#: Arrays the apply pass touches; these (and only these) are attached by
#: the shard workers.  ``node_at``/``id_index`` stay parent-only.
_SHARED_FOR_APPLY = ("ids", "dep", "outdeg", "sent", "received", "ebits")


def _vmhwm_kb() -> int:
    """Peak resident set (VmHWM) of the calling process, in KiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _worker_main(conn, untrack: bool) -> None:
    """Shard worker loop: attach shared blocks, apply routed scatter groups.

    Protocol (all messages are tuples, first element the kind):

    * ``("attach", specs, view_size)`` — (re)map the shared blocks named
      in ``specs`` (sent at start and after every capacity grow);
    * ``("apply", payload)`` — run :func:`repro.kernel.array.apply_scatter`
      on this worker's slice of an accepted group;
    * ``("rss",)`` — report the worker's peak RSS in KiB;
    * ``("stop",)`` — acknowledge and exit.
    """
    blocks = {}
    views = {}
    view_size = 0
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "attach":
                specs, view_size = msg[1], msg[2]
                for block in blocks.values():
                    block.close()
                blocks, views = {}, {}
                for name, (shm_name, shape, dtype) in specs.items():
                    block = shared_memory.SharedMemory(name=shm_name)
                    # Under spawn, attaching registers the segment with
                    # this process's own resource tracker, which would
                    # unlink it again at exit; the parent owns the
                    # lifetime.  Under fork the tracker is shared with
                    # the parent, so unregistering here would strip the
                    # parent's registration instead — leave it alone.
                    if untrack:
                        try:
                            resource_tracker.unregister(
                                block._name, "shared_memory"
                            )
                        except Exception:
                            pass
                    blocks[name] = block
                    views[name] = np.ndarray(
                        shape, dtype=np.dtype(dtype), buffer=block.buf
                    )
                conn.send(("ok",))
            elif kind == "apply":
                ids2d = views["ids"]
                apply_scatter(
                    ids2d.reshape(-1),
                    views["dep"].reshape(-1),
                    views["outdeg"],
                    views["sent"],
                    views["received"],
                    ids2d,
                    views.get("ebits"),
                    view_size,
                    *msg[1],
                )
                conn.send(("ok",))
            elif kind == "rss":
                conn.send(("rss", _vmhwm_kb()))
            elif kind == "stop":
                conn.send(("ok",))
                return
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        for block in blocks.values():
            block.close()
        conn.close()


class _Resources:
    """Worker handles and shared blocks, owned apart from the kernel so a
    ``weakref.finalize`` can release them without keeping the kernel alive."""

    def __init__(self):
        self.blocks = {}  # name -> list of (array, SharedMemory)
        self.procs = []
        self.conns = []


def _release(res: _Resources) -> None:
    for conn in res.conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
    for proc in res.procs:
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
    for conn in res.conns:
        try:
            conn.close()
        except OSError:
            pass
    for entries in res.blocks.values():
        for _, block in entries:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:
                pass
    res.blocks.clear()
    res.procs.clear()
    res.conns.clear()


class ShardedKernel(ArrayKernel):
    """S&F over shared-memory state with per-shard apply workers.

    Args:
        params: the validated ``(s, dL)`` pair.
        capacity: initial row capacity (size the blocks to the expected
            population up front to avoid re-attach churn).
        workers: shard count; defaults to the machine's CPU count.

    Workers are spawned lazily on the first executed batch, so observers
    and population setup never pay the process cost.  Call :meth:`close`
    (or let the kernel be garbage-collected) to stop workers and unlink
    the shared blocks.
    """

    _metric_prefix = "kernel.sharded"

    def __init__(
        self,
        params: SFParams,
        capacity: int = 64,
        workers: Optional[int] = None,
    ):
        self._res = _Resources()
        self._nworkers = int(workers) if workers else (os.cpu_count() or 1)
        if self._nworkers < 1:
            raise ValueError(f"need at least one worker, got {self._nworkers}")
        self._started = False
        super().__init__(params, capacity)
        self._finalizer = weakref.finalize(self, _release, self._res)

    # -- shared-memory storage ---------------------------------------------

    def _alloc(self, name, shape, dtype, fill) -> np.ndarray:
        nbytes = max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
        block = shared_memory.SharedMemory(create=True, size=nbytes)
        array = np.ndarray(shape, dtype=dtype, buffer=block.buf)
        array[...] = fill
        self._res.blocks.setdefault(name, []).append((array, block))
        return array

    def _free(self, name, array) -> None:
        entries = self._res.blocks.get(name, [])
        for k, (arr, block) in enumerate(entries):
            if arr is array:
                del entries[k]
                block.close()
                block.unlink()
                return

    def _block_of(self, name) -> shared_memory.SharedMemory:
        array = getattr(self, "_" + name)
        for arr, block in self._res.blocks[name]:
            if arr is array:
                return block
        raise KeyError(name)  # pragma: no cover - registry is append-only

    # -- worker management ---------------------------------------------------

    def _attach_specs(self):
        specs = {}
        for name in _SHARED_FOR_APPLY:
            array = getattr(self, "_" + name, None)
            if array is None:
                continue
            specs[name] = (
                self._block_of(name).name, array.shape, array.dtype.str
            )
        return specs

    def _broadcast(self, message) -> list:
        for conn in self._res.conns:
            conn.send(message)
        replies = []
        for conn in self._res.conns:
            if not conn.poll(60):
                raise RuntimeError("shard worker unresponsive")
            replies.append(conn.recv())
        return replies

    def _ensure_workers(self) -> None:
        if self._started:
            return
        ctx = mp.get_context()
        untrack = ctx.get_start_method() != "fork"
        for _ in range(self._nworkers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, untrack), daemon=True
            )
            proc.start()
            child_conn.close()
            self._res.procs.append(proc)
            self._res.conns.append(parent_conn)
        self._started = True
        self._broadcast(("attach", self._attach_specs(), self.params.view_size))

    def _grow(self) -> None:
        super()._grow()
        if self._started:
            self._broadcast(
                ("attach", self._attach_specs(), self.params.view_size)
            )

    def close(self) -> None:
        """Stop the shard workers and unlink all shared blocks."""
        self._finalizer()

    def peak_rss_kb(self) -> int:
        """Peak RSS (KiB) summed over the parent and all shard workers."""
        total = _vmhwm_kb()
        if self._started:
            for reply in self._broadcast(("rss",)):
                total += reply[1]
        return total

    # -- sharded execution ---------------------------------------------------

    def _gather_plan(self, u, bi, bj, lost):
        t0 = time.perf_counter()
        plan = super()._gather_plan(u, bi, bj, lost)
        tel = get_telemetry()
        if tel.metrics_on:
            tel.observe_timer("phase.shard_plan", time.perf_counter() - t0)
        return plan

    def _scatter_group(
        self, um, rows_c, bi_c, bj_c, shm_c, rows_d, rows_s, c, su,
        first_ids, second_ids, flags,
    ) -> None:
        self._ensure_workers()
        t0 = time.perf_counter()
        conns = self._res.conns
        nshards = len(conns)
        capacity = self._ids.shape[0]
        # Row r belongs to shard r * W // capacity: contiguous equal-width
        # shards, stable for a given capacity, recomputed on grow.
        bounds = [(w * capacity) // nshards for w in range(nshards + 1)]
        for w, conn in enumerate(conns):
            lo, hi = bounds[w], bounds[w + 1]
            mu = (um >= lo) & (um < hi)
            mc = (rows_c >= lo) & (rows_c < hi)
            md = (rows_d >= lo) & (rows_d < hi)
            ms = (rows_s >= lo) & (rows_s < hi)
            conn.send((
                "apply",
                (
                    um[mu],
                    rows_c[mc], bi_c[mc], bj_c[mc],
                    shm_c[mc] if shm_c is not None else None,
                    rows_d[md],
                    rows_s[ms], c[ms], su[ms],
                    first_ids[ms], second_ids[ms],
                    flags[ms],
                ),
            ))
        for conn in conns:
            if not conn.poll(60):
                raise RuntimeError("shard worker unresponsive")
            conn.recv()
        tel = get_telemetry()
        if tel.metrics_on:
            tel.observe_timer("phase.shard_apply", time.perf_counter() - t0)
