"""Shared machinery of the benchmark suite.

Everything here is measurement plumbing, used by every workload:

* :func:`pin_blas_threads` — one BLAS thread, set before numpy loads;
* :class:`RunDirs` — one temp root per run (solve cache, checkpoints,
  outputs), inside the checkout, removed afterwards;
* :class:`Tracer` — in-memory spans (name, start, end, parent) recorded
  from *outside* the program, through timing wrappers patched around
  public functions, plus self-time aggregation and a nesting check;
* :class:`Checks` — the per-run verification ledger behind
  ``correct`` / ``attempted`` / ``failed``;
* host-speed probes, the peak-RSS reader, state digests, host fingerprint.

numpy is imported lazily so that importing this module never defeats
:func:`pin_blas_threads`.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Per-run temp roots live here: inside the checkout, ignored by git.
WORK_DIR = REPO_ROOT / ".bench_work"

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS to one thread.  Must run before numpy is first imported.

    Unpinned, ``expected_conductance`` burns twice the CPU for the same
    wall time on two cores, and run-to-run spread widens with it.
    """
    for name in BLAS_ENV:
        os.environ[name] = "1"


def host_fingerprint() -> Dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    import numpy
    import scipy

    try:
        import numba

        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


# ----------------------------------------------------------------------
# Hermetic run directories
# ----------------------------------------------------------------------


class RunDirs:
    """One temp root per run; nothing is written outside it.

    ``REPRO_SOLVE_CACHE_DIR`` is pointed into the root on creation, so
    neither this process nor any child it starts touches
    ``~/.cache/repro-gossip``.
    """

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
        self._count = 0
        os.environ["REPRO_SOLVE_CACHE_DIR"] = str(self.fresh("solve-cache"))

    def fresh(self, label: str) -> Path:
        """A new, empty directory under the root."""
        self._count += 1
        path = self.root / f"{self._count:03d}-{label}"
        path.mkdir()
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only succeeds once the last run is gone


def child_env(solve_cache: Path) -> Dict[str, str]:
    """Environment for a ``python -m repro`` child: src on the path, own cache."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    env["REPRO_SOLVE_CACHE_DIR"] = str(solve_cache)
    return env


# ----------------------------------------------------------------------
# Process supervision
# ----------------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
#: How long descendants that end on their own get before they are killed.
#: multiprocessing's resource tracker (started by the sharded kernel's
#: shared-memory blocks) exits on end-of-file, a few ms after its parent.
ORPHAN_GRACE_S = 5.0


def supervise(command: List[str], timeout: float) -> int:
    """Run ``command``; return only once it and every descendant has ended.

    The command runs in a session of its own and this process is made the
    reaper of its orphaned descendants, so ``waitpid`` sees each of them
    end: nothing the run started — pool workers, shard workers, a resource
    tracker — is left behind to serve or disturb the next run, on any path
    out (normal exit, crash, timeout, interrupt).
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        code = 1
    finally:
        if child.poll() is None:
            _kill_group(child.pid)
            child.wait()
        if not _reap_descendants(child.pid):
            code = code or 1
    return code


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def _reap_descendants(pgid: int) -> bool:
    """Wait for every remaining child; kill the group once the grace is spent."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                return False  # survived SIGKILL for a whole grace period
            _kill_group(pgid)
            killed = True
            deadline = time.monotonic() + ORPHAN_GRACE_S
        time.sleep(0.002)


# ----------------------------------------------------------------------
# Resource accounting
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def steady(values: List[float], window: slice) -> List[float]:
    """The units inside the fixed statistics window (all, if none got there).

    Unit cost drifts while the ring bootstrap relaxes, and a slow run
    completes fewer units than a fast one: a fixed index window makes both
    weigh the same stretch of the trajectory.
    """
    return values[window] or values


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q2, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return [only, only, only]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def protocol_ratios(stats: Any, engine_stats: Any) -> Dict[str, float]:
    """The exact S&F counts both simulation workloads report, as ratios."""
    return {
        "core.send_ratio": ratio(stats.messages_sent, stats.actions),
        "core.dup_ratio": ratio(stats.duplications, stats.non_self_loop_actions),
        "core.del_ratio": ratio(stats.deletions, stats.non_self_loop_actions),
        "net.loss.lost_ratio": ratio(engine_stats.messages_lost, engine_stats.messages_sent),
    }


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------

#: The probe is sized to take this long on the reference host, so that a
#: normalised time reads as plain seconds there.
REFERENCE_PROBE_S = 0.004
PROBE_LOOPS = 95_000


def probe() -> float:
    """Seconds the fixed pure-Python calibration loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Brackets every timed unit with calibration probes.

    The sandbox is a two-vCPU guest on a shared host.  Interference from
    its neighbours slows *everything* by 20-60 % in spells of ten seconds
    to a minute, which no statistic over one 24 s run can average away:
    over ten runs the per-run medians of raw unit times spread
    (interquartile / median) 12-17 %, per-run minima 7-14 %.  A 4 ms
    pure-Python loop run immediately before and after a short unit slows
    down with it, so ``unit time x reference / probe time`` — the time the
    unit would have taken had the probe run at reference speed — spreads
    4-5 % for interpreter-bound units and 9-12 % for the memory-bound
    array kernel and the socket-bound cluster.  It only works for units
    well shorter than a spell: a 0.5 s call normalised no better than
    raw.  Every time the suite gates on is the median of such normalised
    short units; the raw median and the host speed the run saw travel in
    its ``info``.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]

    def factor(self) -> float:
        """Probe again; the scale for the unit since the previous probe."""
        previous = self.probes[-1]
        self.probes.append(probe())
        return REFERENCE_PROBE_S / ((previous + self.probes[-1]) / 2.0)

    def resync(self) -> None:
        """Probe afresh after untimed work, so the next unit is bracketed."""
        self.probes.append(probe())

    def relative(self) -> float:
        """Median host speed seen, 1.0 being the reference host."""
        return REFERENCE_PROBE_S / median(self.probes)


# ----------------------------------------------------------------------
# Verification ledger
# ----------------------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed, and every named output check."""

    attempted: int = 0
    failed: int = 0
    log: List[Dict[str, Any]] = field(default_factory=list)

    def count(self, attempted: int, failed: int = 0) -> None:
        """Account a batch of operations (actions, cells, rounds)."""
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.log.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def guard(self, name: str, call: Callable[[], Any]) -> bool:
        """Run an asserting verifier; an AssertionError fails the check."""
        try:
            call()
        except AssertionError as exc:
            return self.check(name, False, str(exc))
        return self.check(name, True)

    def close_to(self, name: str, value: float, target: float, tol: float) -> bool:
        return self.check(
            name, abs(value - target) <= tol, f"{value:.5f} vs {target} ± {tol}"
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ----------------------------------------------------------------------
# State digests
# ----------------------------------------------------------------------


def digest_arrays(arrays: Iterable[Any]) -> str:
    """SHA-256 over the raw bytes of a sequence of numpy arrays."""
    import numpy as np

    sha = hashlib.sha256()
    for item in arrays:
        sha.update(np.ascontiguousarray(item).data)
    return sha.hexdigest()


def digest_kernel(kernel: Any) -> str:
    """Digest of an array-backed kernel: live id matrix and node order."""
    ids, node_at = kernel.array_state()
    return digest_arrays([ids, node_at])


def digest_views(protocol: Any) -> str:
    """Digest of an object-path protocol: every view, slot-exact."""
    sha = hashlib.sha256()
    for node in protocol.node_ids():
        sha.update(b"n%d:" % node)
        for slot, entry in protocol.raw_view(node).entries():
            sha.update(b"%d,%d,%d;" % (slot, entry.node_id, entry.dependent))
    return sha.hexdigest()


def digest_text(parts: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()


# ----------------------------------------------------------------------
# Tracing from outside
# ----------------------------------------------------------------------

_MISSING = object()


@dataclass
class SpanTotals:
    """Per-name aggregate: calls, summed duration, summed self time."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def per_call_us(self) -> float:
        return ratio(self.total_s, self.count) * 1e6


class Tracer:
    """Span log kept in memory: name, start, end and parent of every span.

    Spans are stored column-wise in typed arrays (24 bytes a span) — the
    object-path workload records over a million.  A span's parent is
    whichever span was open when it began; its self time is its duration
    minus its children's.  One logical thread only: every workload
    records from a single thread (the live cluster's asyncio loop
    included), which is what makes a plain stack enough.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(self.intern(name))
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with one span named ``name`` around every call."""
        name_id = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                finish(index)

        # Keep the identity the sweep runner keys checkpoints on.
        for attribute in ("__module__", "__qualname__", "__name__", "__doc__"):
            with contextlib.suppress(AttributeError):
                setattr(traced, attribute, getattr(function, attribute))
        return traced

    @contextlib.contextmanager
    def patched(self, owner: Any, attribute: str, name: str) -> Iterator[None]:
        """Time ``owner.attribute`` for the duration of the block.

        ``owner`` may be an instance, a class or a module.  The original
        attribute is restored (or the shadowing one removed) on exit.
        """
        scope = vars(owner) if hasattr(owner, "__dict__") else {}
        previous = scope.get(attribute, _MISSING)
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name))
        try:
            yield
        finally:
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def patch_all(
        self, stack: contextlib.ExitStack, targets: Iterable[tuple]
    ) -> None:
        """Enter :meth:`patched` for each ``(owner, attribute, name)``."""
        for owner, attribute, name in targets:
            stack.enter_context(self.patched(owner, attribute, name))

    # -- aggregation ---------------------------------------------------

    def _columns(self):
        import numpy as np

        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def totals(self) -> Dict[str, SpanTotals]:
        """Count, total and self time of every span name."""
        import numpy as np

        if not len(self):
            return {}
        name_id, parent, start, end = self._columns()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(self)
        )
        own = duration - covered
        width = len(self.names)
        counts = np.bincount(name_id, minlength=width)
        total = np.bincount(name_id, weights=duration, minlength=width)
        self_time = np.bincount(name_id, weights=own, minlength=width)
        return {
            name: SpanTotals(int(counts[i]), float(total[i]), float(self_time[i]))
            for i, name in enumerate(self.names)
        }

    def nesting_violations(self, slack: float = 1e-6) -> List[str]:
        """Spans that are open, escape their parent, or have negative self time."""
        import numpy as np

        problems: List[str] = []
        if self._stack:
            problems.append(f"{len(self._stack)} span(s) never finished")
        if not len(self):
            return problems
        _, parent, start, end = self._columns()
        duration = end - start
        if np.any(duration < 0):
            problems.append("span ends before it starts")
        child = np.flatnonzero(parent >= 0)
        above = parent[child]
        if np.any(above >= child):
            problems.append("parent recorded after its child")
        if np.any(start[child] < start[above] - slack) or np.any(
            end[child] > end[above] + slack
        ):
            problems.append("child span escapes its parent's interval")
        covered = np.bincount(above, weights=duration[child], minlength=len(self))
        if np.any(covered > duration + slack):
            problems.append("children cover more than their parent (negative self time)")
        return problems

    def export(self, limit: int = 2000) -> List[Dict[str, Any]]:
        """The first ``limit`` spans as records, for the run's detail file."""
        return [
            {
                "name": self.names[self.name_id[i]],
                "start": self.start[i],
                "end": self.end[i],
                "parent": self.parent[i],
            }
            for i in range(min(limit, len(self)))
        ]


def span_of(tracer: Optional[Tracer]) -> Callable[[str], Any]:
    """``tracer.span``, or a no-op context manager factory when untraced."""
    if tracer is not None:
        return tracer.span
    return lambda _name: contextlib.nullcontext()


def per_call_us(totals: Dict[str, SpanTotals], name: str) -> float:
    found = totals.get(name)
    return found.per_call_us() if found else 0.0


def span_seconds(totals: Dict[str, SpanTotals], name: str, self_time: bool = False) -> float:
    found = totals.get(name)
    if found is None:
        return 0.0
    return found.self_s if self_time else found.total_s


def span_count(totals: Dict[str, SpanTotals], name: str) -> int:
    found = totals.get(name)
    return 0 if found is None else found.count


# ----------------------------------------------------------------------
# What a workload hands back
# ----------------------------------------------------------------------


@dataclass
class RunContext:
    """Inputs of one run, as the command line gave them."""

    seed: int
    seconds: float
    trace: bool
    quick: bool
    dirs: RunDirs
    tracer: Optional[Tracer] = None

    def seeds(self, count: int) -> List[int]:
        """``count`` independent integer seeds derived from ``--seed``."""
        import numpy as np

        sequence = np.random.SeedSequence(self.seed)
        return [int(child.generate_state(1)[0]) for child in sequence.spawn(count)]


@dataclass
class WorkloadResult:
    """Metrics by name plus the verification ledger and run facts."""

    metrics: Dict[str, float]
    checks: Checks
    #: SHA-256 of the program state at a fixed point of the run (None for
    #: the live cluster, whose interleaving the OS decides).
    digest: Optional[str] = None
    #: Workload-specific user-visible figures and counts (actions/s, …).
    info: Dict[str, Any] = field(default_factory=dict)


@contextlib.contextmanager
def gc_parked() -> Iterator[None]:
    """Keep the cycle collector out of a timed section."""
    import gc

    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()

