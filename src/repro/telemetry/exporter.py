"""Stdlib HTTP: :class:`HTTPServer`, the package's one HTTP server, and
the live telemetry exporter that runs on it.

A :class:`MetricsExporter` serves the process's
:class:`~repro.telemetry.metrics.MetricsRegistry` in the OpenMetrics
text format on ``/metrics``, a trivial liveness probe on ``/healthz``,
and — when wired to a :class:`~repro.telemetry.stream.CampaignProgress`
— the campaign's live progress JSON on ``/runs``.  No new dependencies,
and closing the exporter never blocks the run it observed.

Scrape safety: the registry's exposition takes an atomic snapshot of
the metric table, so a mid-run scrape sees a consistent point-in-time
view while workers keep merging.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, NamedTuple

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.stream import CampaignProgress

#: the OpenMetrics content type Prometheus negotiates for
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"
#: seconds a client may stall mid-request before its connection is dropped
READ_TIMEOUT_S = 30
#: request bodies longer than this are refused with 413, unread
MAX_BODY_BYTES = 8 * 1024 * 1024


class BindError(OSError):
    """The server's address cannot be bound (port in use, no permission)."""


class Response(NamedTuple):
    """One reply.  A ``bytes`` body goes out with its ``Content-Length``;
    any other iterable of ``bytes`` is streamed chunk by chunk until it
    is exhausted or the client goes away."""

    status: int
    ctype: str
    body: bytes | Iterable[bytes]
    headers: tuple[tuple[str, str], ...] = ()


def json_response(status: int, obj) -> Response:
    return Response(status, "application/json", json.dumps(obj).encode())


class HTTPServer:
    """``route(method, path, body) -> Response`` served on a daemon thread.

    It owns the wire: binding (``port=0`` picks an ephemeral port), the
    read timeout and body limit, ``Content-Length`` parsing, streaming,
    and swallowing client disconnects; ``path`` reaches the route
    without its query string.  The constructor binds, raising
    :class:`BindError` at once; :meth:`start` begins serving, so a
    caller can finish its set-up before the first request.  With
    ``http11`` replies are HTTP/1.1 with ``Connection: close``; either
    way every request gets its own connection.
    """

    def __init__(
        self,
        route: Callable[[str, str, bytes], Response],
        *,
        host: str,
        port: int,
        name: str,
        http11: bool = False,
    ) -> None:
        class _Handler(BaseHTTPRequestHandler):
            timeout = READ_TIMEOUT_S
            protocol_version = "HTTP/1.1" if http11 else "HTTP/1.0"

            def log_message(self, fmt, *args):  # silence per-request noise
                return

            def _dispatch(self) -> None:
                try:
                    length = self.headers.get("Content-Length", "").strip() or "0"
                    if not (length.isascii() and length.isdigit()):
                        self._reply(
                            json_response(400, {"error": f"bad Content-Length: {length!r}"})
                        )
                    elif int(length) > MAX_BODY_BYTES:
                        self._reply(json_response(413, {"error": "body too large"}))
                    else:
                        body = self.rfile.read(int(length))
                        if len(body) == int(length):  # else the client gave up
                            path = self.path.split("?", 1)[0]
                            self._reply(route(self.command, path, body))
                except (ConnectionError, TimeoutError):
                    pass  # client went away or stalled mid-request

            do_GET = do_POST = _dispatch

            def _reply(self, resp: Response) -> None:
                self.send_response(resp.status)
                self.send_header("Content-Type", resp.ctype)
                whole = isinstance(resp.body, bytes)
                if whole:
                    self.send_header("Content-Length", str(len(resp.body)))
                for key, value in resp.headers:
                    self.send_header(key, value)
                if http11:
                    self.send_header("Connection", "close")
                self.end_headers()
                for chunk in [resp.body] if whole else resp.body:
                    self.wfile.write(chunk)

        try:
            self._server = ThreadingHTTPServer((host, port), _Handler)
        except OSError as e:
            raise BindError(f"cannot bind {host}:{port}: {e.strerror}") from e
        self.name = name
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving (idempotent); open streams are not waited for."""
        if self._thread is not None:
            self._server.shutdown()
        self._server.server_close()


class MetricsExporter:
    """Serves live telemetry over HTTP from a background daemon thread.

    ``registry`` may be the live object or a zero-argument provider
    (called per scrape, so a CLI can swap registries between commands).
    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.
    """

    def __init__(
        self,
        registry: MetricsRegistry | Callable[[], MetricsRegistry],
        *,
        progress: CampaignProgress | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry = registry
        self.progress = progress
        self._http = HTTPServer(
            self._route, host=host, port=port, name="repro-metrics-exporter"
        ).start()
        self.host = host
        self.port = self._http.port

    def _route(self, method: str, path: str, body: bytes) -> Response:
        if method == "GET" and path == "/metrics":
            text = self.registry().to_prometheus()
            return Response(200, OPENMETRICS_CONTENT_TYPE, text.encode("utf-8"))
        if method == "GET" and path == "/healthz":
            return Response(200, "text/plain; charset=utf-8", b"ok\n")
        if method == "GET" and path == "/runs":
            prog = self.progress
            body = (json.dumps(prog.snapshot() if prog else None) + "\n").encode("utf-8")
            return Response(200, "application/json; charset=utf-8", body)
        return Response(404, "text/plain; charset=utf-8", b"not found\n")

    def registry(self) -> MetricsRegistry:
        reg = self._registry
        return reg() if callable(reg) else reg

    @property
    def url(self) -> str:
        return self._http.url

    def close(self) -> None:
        """Stop serving (idempotent); never raises."""
        self._http.close()

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
