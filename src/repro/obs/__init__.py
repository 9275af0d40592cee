"""Structured telemetry: metrics, tracing, and profiling hooks.

The ``obs`` package gives every layer of the stack — engines, kernels,
the sweep runner, the solve cache, the experiment registry, and the CLI
— one shared, zero-cost-when-disabled instrumentation surface:

* :class:`repro.obs.metrics.Registry` — counters, gauges, histograms,
  and wall/CPU timers with deterministic cross-process aggregation;
* :class:`repro.obs.trace.Tracer` — schema-versioned JSONL span/event
  records (``--trace``);
* :func:`repro.obs.profile.phase` — per-phase wall/CPU profiling hooks;
* :class:`repro.obs.worker.MeteredWorker` — captures worker-process
  metrics in :class:`repro.runner.SweepRunner` pools and ships them back
  for a deterministic merge;
* :func:`repro.obs.openmetrics.render_openmetrics` /
  :class:`repro.obs.openmetrics.MetricsEndpoint` — Prometheus/OpenMetrics
  text exposition of any registry and a stdlib HTTP thread serving live
  ``/metrics`` + ``/progress`` during a sweep (``--metrics-port``).

Instrumented code never holds a tracer or registry directly; it asks for
the process-current :class:`Telemetry` via :func:`get_telemetry` and
guards with ``tel.active``.  The default telemetry is **disabled**: every
recording method is a no-op, the guard is a single attribute check, and
— crucially for this repository — nothing here ever draws randomness, so
enabling telemetry cannot perturb a seeded simulation.  Bit-identical
output with telemetry on or off is an acceptance criterion, not an
accident.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    HistogramStat,
    Registry,
    TimerStat,
)
from repro.obs.openmetrics import MetricsEndpoint, render_openmetrics
from repro.obs.trace import TRACE_SCHEMA_VERSION, Tracer

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "HistogramStat",
    "MetricsEndpoint",
    "Registry",
    "Telemetry",
    "TimerStat",
    "Tracer",
    "activated",
    "get_telemetry",
    "render_openmetrics",
]


class Telemetry:
    """The bundle instrumented code talks to: a registry and/or a tracer.

    Either half may be ``None`` (off).  All recording methods are no-ops
    for a missing half, so call sites need at most one ``tel.active``
    guard around any block that does real measurement work (clock reads,
    field formatting); bare counter bumps can just call :meth:`inc`.
    """

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry
        self.tracer = tracer

    # -- state ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any instrument is attached (the hot-path guard)."""
        return self.registry is not None or self.tracer is not None

    @property
    def metrics_on(self) -> bool:
        return self.registry is not None

    @property
    def tracing_on(self) -> bool:
        return self.tracer is not None

    # -- metrics passthroughs ------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.observe(name, value)

    def observe_timer(self, name: str, wall: float, cpu: float = 0.0) -> None:
        if self.registry is not None:
            self.registry.observe_timer(name, wall, cpu)

    # -- trace passthroughs --------------------------------------------

    def event(self, type_: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(type_, **fields)


#: The do-nothing default every process starts with.
_DISABLED = Telemetry()
_CURRENT: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    """The process-current telemetry (disabled outside :func:`activated`)."""
    return _CURRENT


@contextmanager
def activated(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as process-current for the block (the only
    installer); leaving it, normally or not, restores the previous one.
    Closing a tracer stays its owner's job."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous
