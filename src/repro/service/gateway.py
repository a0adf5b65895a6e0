"""The HTTP/REST gateway: the daemon's ops as JSON-over-HTTP.

Every endpoint translates onto the same :meth:`AllocationDaemon.handle`
op handlers the socket transports use — one daemon, one commit lock,
one metrics surface, whatever the wire. The daemon's op table is the
route table: ``/v1/<op>`` answers GET for a read-only op and POST for
every other; the wrong method is ``405``, an unknown path ``404``.

=====================  ======  =========================================
Endpoint               Method  Daemon op
=====================  ======  =========================================
``/v1/place``          POST    ``place`` (body: ``{"vm": {...}}``)
``/v1/place_batch``    POST    ``place_batch`` (body: ``{"vms": [...]}``)
``/v1/tick``           POST    ``tick`` (body: ``{"now": t}``)
``/v1/fail_server``    POST    ``fail_server``
``/v1/recover_server`` POST    ``recover_server``
``/v1/consolidate``    POST    ``consolidate``
``/v1/snapshot``       POST    ``snapshot``
``/v1/shutdown``       POST    ``shutdown``
``/v1/stats``          GET     ``stats``
``/v1/telemetry``      GET     ``telemetry`` (``?last=N``)
``/v1/dump_debug``     GET     ``dump_debug``
``/v1/ping``           GET     ``ping``
``/v1/metrics``        GET     ``metrics`` (Prometheus text page)
``/metrics``           GET     the same page (the scrape path)
``/healthz``           GET     liveness/readiness probe (``/readyz`` too)
``/varz``              GET     the debug JSON document
=====================  ======  =========================================

Requests are served as protocol **v3**, so failures carry the typed
error envelope (:mod:`repro.service.errors`) and the HTTP status is
its projection — ``overloaded`` answers ``429`` with a ``Retry-After``
header, ``unavailable`` ``503``, validation failures ``400``.

Trace propagation: ``X-Trace-Id`` / ``X-Request-Id`` request headers
become the request's :class:`~repro.obs.context.TraceContext` (the
same ids land on journal entries, spans and logs), and both ids are
echoed back as response headers whether the caller supplied them or
not.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.context import REQUEST_ID_FIELD, TRACE_ID_FIELD
from repro.service.tcp import LISTEN_BACKLOG
from repro.service.daemon import AllocationDaemon
from repro.service.errors import envelope, error_fields, http_status_of
from repro.service.metrics import CONTENT_TYPE

__all__ = ["GatewayServer", "start_gateway"]

#: Header names carrying the trace context across the HTTP hop.
TRACE_HEADER = "X-Trace-Id"
REQUEST_HEADER = "X-Request-Id"

#: path -> the one method it answers.
_ROUTES = {f"/v1/{op}": "GET" if kind == "read" else "POST"
           for op, (_, kind) in AllocationDaemon._OPS.items()} \
    | dict.fromkeys(("/metrics", "/healthz", "/readyz", "/varz"), "GET")

_JSON = "application/json; charset=utf-8"
_MAX_BODY = 64 * 1024 * 1024


class _GatewayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str = _JSON,
              extra: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, code: str, message: str) -> None:
        body = json.dumps(
            {"ok": False, "error": envelope(code, message)},
            separators=(",", ":")).encode("utf-8")
        self._send(status, body)

    def _send_response(self, response: dict[str, object]) -> None:
        """One daemon response, projected onto HTTP."""
        status = http_status_of(response)
        extra: dict[str, str] = {}
        trace_id = response.get(TRACE_ID_FIELD)
        request_id = response.get(REQUEST_ID_FIELD)
        if isinstance(trace_id, str):
            extra[TRACE_HEADER] = trace_id
        if isinstance(request_id, str):
            extra[REQUEST_HEADER] = request_id
        fields = error_fields(response)
        if fields is not None and fields.retry_after is not None:
            extra["Retry-After"] = str(fields.retry_after)
        body = json.dumps(response, separators=(",", ":"),
                          default=str).encode("utf-8")
        self._send(status, body, extra=extra)

    def _dispatch(self, op: str, body: dict[str, object]) -> None:
        # The route, not the body, names the op and the version.
        message: dict[str, object] = {**body, "op": op, "v": 3}
        for header, field in ((TRACE_HEADER, TRACE_ID_FIELD),
                              (REQUEST_HEADER, REQUEST_ID_FIELD)):
            value = self.headers.get(header)
            if value is not None and field not in message:
                message[field] = value
        self._send_response(self.server.daemon.handle(message))

    # -- methods -----------------------------------------------------------

    def _routed(self, method: str) -> str | None:
        """The request's path when it answers ``method``; otherwise the
        404 / 405 is sent and None returned."""
        path = urlparse(self.path).path.rstrip("/") or "/"
        allowed = _ROUTES.get(path)
        if allowed == method:
            return path
        if allowed is None:
            self._send_error(404, "not_found", f"no such endpoint {path}")
        else:
            self._send_error(405, "method_not_allowed",
                             f"{path} is read-only; use GET"
                             if allowed == "GET"
                             else f"{path} mutates state; use POST")
        return None

    def do_POST(self) -> None:
        path = self._routed("POST")
        if path is None:
            return
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length < 0:  # read(-n) raises or blocks until the peer closes
                raise ValueError(length)
        except ValueError:
            self._send_error(400, "bad_request",
                             "malformed Content-Length header")
            return
        if length > _MAX_BODY:
            self._send_error(400, "bad_request",
                             f"request body of {length} bytes exceeds "
                             f"the {_MAX_BODY}-byte limit")
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error(400, "bad_request",
                             f"request body is not valid JSON: {exc}")
            return
        if not isinstance(body, dict):
            self._send_error(400, "bad_request",
                             "request body must be a JSON object")
            return
        self._dispatch(path[len("/v1/"):], body)

    def do_GET(self) -> None:
        path = self._routed("GET")
        if path is None:
            return
        daemon = self.server.daemon
        if path in ("/healthz", "/readyz"):
            if daemon.ready and not daemon.closed:
                self._send(200, b"ok\n", "text/plain; charset=utf-8")
            else:
                reason = b"shutting down\n" if daemon.closed \
                    else b"restoring\n"
                self._send(503, reason, "text/plain; charset=utf-8")
            return
        if path == "/varz":
            body = (json.dumps(daemon.varz(), indent=2, default=str)
                    + "\n").encode("utf-8")
            self._send(200, body)
            return
        if path in ("/v1/metrics", "/metrics"):
            # The Prometheus page is text, not a JSON op response.
            self._send(200, daemon.render_metrics().encode("utf-8"),
                       CONTENT_TYPE)
            return
        op = path[len("/v1/"):]
        body: dict[str, object] = {}
        if op == "telemetry":
            query = parse_qs(urlparse(self.path).query)
            if "last" in query:
                try:
                    body["last"] = int(query["last"][0])
                except ValueError:
                    self._send_error(
                        400, "bad_request",
                        f"query parameter last={query['last'][0]!r} "
                        f"is not an integer")
                    return
        self._dispatch(op, body)

    def log_message(self, *args: object) -> None:
        """Silence per-request stderr logging."""


class GatewayServer(ThreadingHTTPServer):
    """The gateway's HTTP server (one thread per request, shared
    daemon). Built by :func:`start_gateway`."""

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address: tuple[str, int],
                 daemon: AllocationDaemon) -> None:
        super().__init__(address, _GatewayHandler)
        self.daemon = daemon


def start_gateway(daemon: AllocationDaemon, host: str = "127.0.0.1",
                  port: int = 0) -> GatewayServer:
    """Serve the REST gateway on a background thread.

    Port ``0`` binds an ephemeral port (read it back from
    ``server.server_address``). A daemon shutdown — whether it arrived
    through the gateway or any socket transport — stops the server.
    """
    server = GatewayServer((host, port), daemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="repro-gateway")
    thread.start()
    daemon.on_shutdown(lambda: threading.Thread(
        target=server.shutdown, daemon=True).start())
    return server
