"""OpenMetrics text exposition of :class:`repro.obs.Registry` snapshots.

Two pieces, both stdlib-only:

* :func:`render_openmetrics` — turn any registry (or a snapshot dict
  produced by :meth:`~repro.obs.Registry.snapshot`) into the
  Prometheus/OpenMetrics text exposition format: counters as
  ``<name>_total``, gauges verbatim, histograms/timers as a single
  ``+Inf`` bucket plus ``_sum``/``_count`` (this registry keeps
  count/total/min/max, not bucket boundaries — the ``le="+Inf"`` bucket
  is the faithful encoding of that) with ``_min``/``_max`` surfaced as
  auxiliary gauges and timer CPU totals as a ``_cpu_seconds`` counter.
  Output is deterministic: metrics sorted by name, values via
  ``repr``-stable formatting, terminated by the ``# EOF`` marker the
  OpenMetrics spec requires.
* :class:`MetricsEndpoint` — a daemon-threaded
  :class:`~http.server.ThreadingHTTPServer` serving ``GET /metrics``
  (the exposition above, scrape-ready for Prometheus) and
  ``GET /progress`` (a JSON view of live sweep progress, e.g.
  :meth:`repro.runner.SweepRunner.progress_snapshot`).  Both read shared
  state that writers mutate one scalar at a time, so a scrape is only
  ever momentarily stale — it can never tear a value or perturb the
  sweep (no locks are taken on the hot path).

Metric names pass through :func:`sanitize_name`: every character outside
``[a-zA-Z0-9_:]`` becomes ``_``, so registry names like
``sweep.completed`` expose as ``repro_sweep_completed_total``.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Union

from repro.obs.metrics import Registry

LOGGER = logging.getLogger("repro.obs.openmetrics")

#: The only address :class:`MetricsEndpoint` binds.
LOOPBACK = "127.0.0.1"

#: Content type the OpenMetrics spec mandates for text exposition.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, prefix: str = "") -> str:
    """A legal OpenMetrics metric name for a registry instrument name."""
    full = f"{prefix}_{name}" if prefix else name
    full = _NAME_BAD_CHARS.sub("_", full)
    if not _NAME_OK.match(full):
        full = f"_{full}"
    return full


def _format_value(value: Union[int, float]) -> str:
    """Exposition-format number: integers bare, floats via ``repr``."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value)}.0"
    return repr(value)


def _histogram_lines(
    lines: list, name: str, stat: Dict[str, Any]
) -> None:
    count = int(stat.get("count", 0))
    total = float(stat.get("total", 0.0))
    lines.append(f"# TYPE {name} histogram")
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_format_value(total)}")
    lines.append(f"{name}_count {count}")
    for bound in ("min", "max"):
        value = stat.get(bound)
        if value is None:
            continue
        lines.append(f"# TYPE {name}_{bound} gauge")
        lines.append(f"{name}_{bound} {_format_value(float(value))}")


def render_openmetrics(
    source: Union[Registry, Dict[str, Any]], prefix: str = "repro"
) -> str:
    """The OpenMetrics text exposition of a registry or snapshot dict.

    ``source`` may be a live :class:`~repro.obs.Registry` (snapshotted
    here) or an already-taken snapshot.  ``prefix`` namespaces every
    metric (pass ``""`` for none).  The result always ends with the
    spec's ``# EOF`` terminator.
    """
    snapshot = source.snapshot() if isinstance(source, Registry) else source
    lines: list = []
    schema = snapshot.get("schema_version")
    if schema is not None:
        name = sanitize_name("metrics_schema_version", prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(int(schema))}")
    for raw, value in sorted(snapshot.get("counters", {}).items()):
        name = sanitize_name(raw, prefix)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}_total {_format_value(value)}")
    for raw, value in sorted(snapshot.get("gauges", {}).items()):
        name = sanitize_name(raw, prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(float(value))}")
    for raw, stat in sorted(snapshot.get("histograms", {}).items()):
        _histogram_lines(lines, sanitize_name(raw, prefix), stat)
    for raw, stat in sorted(snapshot.get("timers", {}).items()):
        name = sanitize_name(f"{raw}_seconds", prefix)
        _histogram_lines(lines, name, stat)
        cpu = sanitize_name(f"{raw}_cpu_seconds", prefix)
        lines.append(f"# TYPE {cpu} counter")
        lines.append(f"{cpu}_total {_format_value(float(stat.get('cpu_total', 0.0)))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`MetricsEndpoint`."""

    server: "_Server"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        endpoint = self.server.endpoint
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = endpoint.render_metrics().encode("utf-8")
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/progress":
            body = json.dumps(
                endpoint.render_progress(), sort_keys=True
            ).encode("utf-8")
            self._reply(200, "application/json; charset=utf-8", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        LOGGER.debug("metrics endpoint: " + format, *args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    endpoint: "MetricsEndpoint"


class MetricsEndpoint:
    """Live ``/metrics`` + ``/progress`` HTTP endpoint for a running sweep.

    Args:
        registry: the :class:`~repro.obs.Registry` to expose at
            ``/metrics`` (``None`` exposes an empty exposition).
        progress: zero-argument callable returning a JSON-serializable
            dict for ``/progress`` (e.g. a bound
            :meth:`~repro.runner.SweepRunner.progress_snapshot`);
            ``None`` serves ``{}``.
        port: TCP port to bind; ``0`` picks a free one (see
            :attr:`port` after :meth:`start`).

    The server binds loopback only — this is an operator diagnostic, not
    an internet-facing service — and runs entirely in daemon threads: an
    abandoned endpoint never blocks interpreter shutdown, but call
    :meth:`stop` for a tidy exit.  Usable as a context manager.
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        progress: Optional[Callable[[], Dict[str, Any]]] = None,
        *,
        port: int = 0,
    ):
        self.registry = registry
        self.progress = progress
        self._requested_port = int(port)
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port (``None`` before :meth:`start`)."""
        return self._server.server_address[1] if self._server else None

    def render_metrics(self) -> str:
        if self.registry is None:
            return "# EOF\n"
        return render_openmetrics(self.registry)

    def render_progress(self) -> Dict[str, Any]:
        if self.progress is None:
            return {}
        try:
            return self.progress()
        except Exception:
            LOGGER.warning("/progress callback raised", exc_info=True)
            return {"error": "progress callback raised"}

    def start(self) -> int:
        """Bind and serve in a background thread; returns the bound port."""
        if self._server is not None:
            return self.port  # type: ignore[return-value]
        server = _Server((LOOPBACK, self._requested_port), _Handler)
        server.endpoint = self
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-metrics-endpoint",
            daemon=True,
        )
        thread.start()
        self._server = server
        self._thread = thread
        LOGGER.info(
            "metrics endpoint listening on http://%s:%d (/metrics, /progress)",
            LOOPBACK, self.port,
        )
        return self.port  # type: ignore[return-value]

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsEndpoint":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
