"""Metrics primitives: counters, gauges, histograms, and timers.

A :class:`Registry` is a flat, named collection of four instrument
kinds:

* **counters** — monotonically increasing integers (``engine.actions``,
  ``solve_cache.misses``);
* **gauges** — last-written floats (``des.max_in_flight``);
* **histograms** — streaming summaries (count/total/min/max) of observed
  values;
* **timers** — histograms of wall-clock durations that additionally
  accumulate CPU time (``phase.kernel_batch``).

Everything here is deliberately boring: plain dicts behind one lock, no
background threads, no sampling.  The design constraints come from the
simulation stack this instruments:

* **zero RNG** — nothing in this module draws randomness, so enabling
  metrics can never perturb a seeded simulation;
* **deterministic merge** — :meth:`Registry.merge_snapshot` folds a
  worker-process snapshot into a parent registry with purely commutative
  arithmetic for counters/histograms/timers (gauges are last-writer-wins,
  so callers merge snapshots in a deterministic order — the sweep runner
  merges by cell index);
* **JSON-stable snapshots** — :meth:`Registry.snapshot` returns plain
  dicts of primitives, versioned by :data:`METRICS_SCHEMA_VERSION`, which
  is exactly what ``repro run --metrics-out`` and the ``<slug>.metrics.json``
  artifact serialize.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

#: Bump when the snapshot layout changes; embedded in every snapshot so
#: downstream tooling (and the perf PRs that regress against these files)
#: can reject incompatible data.
METRICS_SCHEMA_VERSION = 1


class HistogramStat:
    """Streaming summary of observed values: count, total, min, max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, other: Dict[str, Any]) -> None:
        self.count += int(other.get("count", 0))
        self.total += float(other.get("total", 0.0))
        for name, fold in (("min", min), ("max", max)):
            theirs = other.get(name)
            if theirs is None:
                continue
            ours = getattr(self, name)
            setattr(self, name, theirs if ours is None else fold(ours, theirs))


class TimerStat:
    """Wall-clock histogram plus an accumulated CPU-seconds total."""

    __slots__ = ("wall", "cpu_total")

    def __init__(self) -> None:
        self.wall = HistogramStat()
        self.cpu_total = 0.0

    def observe(self, wall: float, cpu: float = 0.0) -> None:
        self.wall.observe(wall)
        self.cpu_total += float(cpu)

    def snapshot(self) -> Dict[str, Any]:
        return {**self.wall.snapshot(), "cpu_total": self.cpu_total}

    def merge(self, other: Dict[str, Any]) -> None:
        self.wall.merge(other)
        self.cpu_total += float(other.get("cpu_total", 0.0))


class Registry:
    """A named collection of counters, gauges, histograms, and timers.

    Thread-safe (one lock around every mutation) so progress hooks and
    the main thread can record concurrently; not shared across processes
    — worker processes build their own registry and ship a
    :meth:`snapshot` back for the parent to :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStat] = {}
        self._timers: Dict[str, TimerStat] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = HistogramStat()
            hist.observe(value)

    def observe_timer(self, name: str, wall: float, cpu: float = 0.0) -> None:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = TimerStat()
            timer.observe(wall, cpu)

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def timer_stat(self, name: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            timer = self._timers.get(name)
            return None if timer is None else timer.snapshot()

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as JSON-safe primitives (sorted names)."""
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in sorted(self._histograms.items())
                },
                "timers": {
                    name: timer.snapshot()
                    for name, timer in sorted(self._timers.items())
                },
            }

    # -- aggregation ----------------------------------------------------

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry.  Counter/histogram/timer merging is commutative; gauges
        are last-writer-wins, so callers needing determinism must merge
        snapshots in a fixed order.
        """
        if int(snap.get("schema_version", METRICS_SCHEMA_VERSION)) != (
            METRICS_SCHEMA_VERSION
        ):
            raise ValueError(
                f"metrics snapshot schema {snap.get('schema_version')!r} "
                f"does not match {METRICS_SCHEMA_VERSION}"
            )
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, other in snap.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = HistogramStat()
                hist.merge(other)
            for name, other in snap.get("timers", {}).items():
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = TimerStat()
                timer.merge(other)
