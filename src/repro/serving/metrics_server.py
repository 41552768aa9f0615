"""``/metrics`` + ``/healthz`` HTTP endpoint over a telemetry registry.

:class:`TelemetryServer` is a tiny stdlib HTTP server that exposes one
:class:`~repro.serving.telemetry.MetricsRegistry` as Prometheus text
(``/metrics``), JSON lines (``/metrics.jsonl``) and a liveness probe
(``/healthz``).  It lives apart from :mod:`repro.serving.telemetry` so
that the modules a cluster worker imports never load ``http.server``;
:meth:`~repro.serving.frontend.AsyncServingFrontend.serve_metrics` starts
one on the async front door.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.serving.telemetry import MetricsRegistry, get_registry

__all__ = ["TelemetryServer"]


class _TelemetryHandler(BaseHTTPRequestHandler):
    """``/metrics`` (Prometheus text) + ``/healthz`` (JSON) handler."""

    server: "TelemetryServer"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Serve one GET request."""
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.registry.to_prometheus().encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.jsonl":
            body = self.server.registry.to_jsonl().encode("utf-8")
            ctype = "application/jsonl"
        elif path == "/healthz":
            body = json.dumps({"status": "ok"}).encode("utf-8")
            ctype = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics or /healthz)")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging."""


class TelemetryServer(ThreadingHTTPServer):
    """Tiny stdlib HTTP server exposing a registry at ``/metrics``.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`address`.  Start with :meth:`start` (daemon thread) and stop
    with :meth:`stop`.
    """

    daemon_threads = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _TelemetryHandler)
        self.registry = registry if registry is not None else get_registry()
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self.server_address[0], self.server_address[1]

    def start(self) -> "TelemetryServer":
        """Serve requests on a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="telemetry-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the socket (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self.shutdown()
            thread.join(timeout=5.0)
        self.server_close()

    def __enter__(self) -> "TelemetryServer":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop on exit."""
        self.stop()
