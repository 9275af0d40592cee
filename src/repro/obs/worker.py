"""Cross-process metric capture for sweep workers.

A :class:`repro.runner.SweepRunner` pool runs cells in worker processes,
where the parent's registry is unreachable (and the parent's tracer
deliberately refuses writes from other PIDs).  :class:`MeteredWorker`
closes the gap:

* in the worker process it installs a fresh metrics-only telemetry,
  profiles the cell (``phase.cell_run``), runs the wrapped worker, and
  returns a :class:`MeteredResult` — the real result plus the worker
  registry's snapshot;
* parent-side, the sweep runner unwraps the value before any result
  handling (ordering and checkpoint journaling see the plain result,
  exactly as without metering) and merges the snapshots
  into its registry **in cell-index order**, so the aggregated metrics
  are deterministic at any ``jobs``.

The runner keys checkpoints on the bare worker before it wraps one, so
a sweep journaled without telemetry resumes under telemetry (and vice
versa) with full cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.obs import Registry, Telemetry, activated
from repro.obs.profile import phase


@dataclass
class MeteredResult:
    """A worker's return value plus its process-local metrics snapshot."""

    value: Any
    metrics: Dict[str, Any]


class MeteredWorker:
    """Picklable wrapper running a sweep worker under fresh telemetry."""

    def __init__(self, worker: Any):
        self.worker = worker

    def __call__(self, cell: Any, context: Any) -> MeteredResult:
        registry = Registry()
        with activated(Telemetry(registry=registry)):
            with phase("cell_run"):
                value = self.worker(cell, context)
        return MeteredResult(value=value, metrics=registry.snapshot())
