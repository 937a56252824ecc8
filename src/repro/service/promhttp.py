"""A read-only Prometheus scrape endpoint for the key service.

``repro-dlr serve --prom-port N`` starts one of these next to the
service: a stdlib :class:`ThreadingHTTPServer` answering

* ``GET /metrics`` -- the service's :class:`MetricsRegistry` rendered by
  :func:`repro.telemetry.prometheus.render_prometheus` (gauges are
  refreshed via :meth:`KeyService.refresh_gauges` first, so every scrape
  carries saturation and per-tenant budget levels consistent with the
  moment it was served);
* ``GET /health`` -- the ``health`` op's JSON body, for load balancers
  that probe HTTP rather than the framed protocol.

Everything else is 404.  The endpoint is strictly read-only -- no
request can mutate service state -- and runs on its own daemon thread,
so a slow scraper never occupies a service worker.  It intentionally
lives on a *separate* port from the framed protocol: the service's
selectors loop, admission control, and shedding stay undisturbed by
monitoring traffic.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.telemetry.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus


class PrometheusEndpoint:
    """The scrape endpoint; start/stop bracket the daemon thread."""

    def __init__(self, service, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "PrometheusEndpoint":
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path == "/metrics":
                    endpoint.service.refresh_gauges()
                    body = render_prometheus(endpoint.service.metrics).encode("utf-8")
                    self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                elif self.path == "/health":
                    fields, _ = endpoint.service._op_health({}, b"")
                    body = json.dumps(fields, sort_keys=True).encode("utf-8")
                    self._reply(200, "application/json", body)
                else:
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")

            def _reply(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args) -> None:  # noqa: A002
                pass  # scrapes are high-frequency; stay silent

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.address = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-prometheus",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "PrometheusEndpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
