"""Stdlib-only HTTP server for online imputation.

Endpoints
---------
``POST /impute``
    Body ``{"row": {...}}`` or ``{"rows": [{...}, ...]}``; missing cells
    are ``null`` (or absent).  Response mirrors the request shape with
    every missing cell filled.
``GET /healthz``
    **Readiness**: 503 until the engine's node representations are
    pinned.  ``GET /healthz?live=1`` is the **liveness** variant: 200
    as soon as the process accepts connections.
``GET /metrics``
    Live counters: request/error totals, the fixed-bucket latency
    histogram with p50/p95/p99, the batch-size histogram, the engine's
    span timings, and a ``telemetry`` section with span aggregates and
    the global counter registry (see :mod:`repro.telemetry`).

One ``ThreadingHTTPServer`` whose handlers funnel rows through a single
:class:`~repro.serve.batcher.MicroBatcher` into the in-process engine.
The batcher flushes when idle, so a request arriving at an idle server
is one engine call away from its reply, and requests arriving under
load share engine batches.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..telemetry import TENSOR_OPS, Tracer, get_registry
from .batcher import BatcherStopped, MicroBatcher
from .engine import InferenceEngine
from .metrics import ServingMetrics

__all__ = ["ImputationServer"]

#: Largest accepted request body (bytes); guards the worker against
#: accidental multi-hundred-MB posts.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to an :class:`ImputationServer` instance."""

    protocol_version = "HTTP/1.1"
    #: Keep-alive transport: with an unbuffered writer and Nagle on,
    #: the kernel holds a reply's body until the client ACKs its
    #: headers, and a client that delays that ACK stalls every reused
    #: connection ~40 ms.  Buffer the writer instead, so the flush
    #: ``handle_one_request`` makes after each ``do_*`` sends status
    #: line, headers and body in one write, and send without Nagle so
    #: a reply larger than the buffer does not wait for an ACK either.
    disable_nagle_algorithm = True
    wbufsize = -1
    #: Set by the owning :class:`ImputationServer`.
    serve_app: "ImputationServer"

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.serve_app.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tells a keep-alive client to reconnect for its next request.
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def handle_expect_100(self) -> bool:
        # The interim ``100 Continue`` must leave now: a client that
        # sent ``Expect: 100-continue`` holds its body until it sees
        # it, and the buffered writer would otherwise keep it until the
        # final reply's flush.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        app = self.serve_app
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._handle_healthz(app, parse_qs(parsed.query))
        elif parsed.path == "/metrics":
            payload = app.metrics.snapshot()
            payload["engine"] = app.engine.stats()
            payload["batching"] = {"max_batch_size": app.max_batch_size}
            payload["telemetry"] = {
                "spans": app.tracer.aggregate(),
                "counters": app.registry.snapshot(),
                "tensor_ops": TENSOR_OPS.snapshot(),
            }
            self._send_json(200, payload)
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def _handle_healthz(self, app: "ImputationServer",
                        query: dict) -> None:
        live_only = query.get("live", ["0"])[0] not in ("0", "", "false")
        payload = {
            "uptime_seconds": time.monotonic() - app.started_at,
            "pinned": app.engine.is_pinned,
            "columns": app.engine.columns,
        }
        if live_only:
            # Liveness: the process is up and answering; warming is not
            # a reason to be restarted.
            payload["status"] = "alive"
            self._send_json(200, payload)
        elif app.engine.is_pinned:
            payload["status"] = "ok"
            self._send_json(200, payload)
        else:
            payload["status"] = "warming"
            self._send_json(503, payload, headers={"Retry-After": "1"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/impute":
            self.close_connection = True  # the body stays unread
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        app = self.serve_app
        started = time.monotonic()
        with app.tracer.span("http.impute") as request_span:
            self._handle_impute(app, started, request_span)

    def _read_body(self) -> bytes:
        """The request body, read in full.

        A ``Content-Length`` that cannot be honoured leaves the body
        unread in the stream, where the next request line would start;
        the connection is then marked to close (the reply says
        ``Connection: close``) before the error is raised.
        """
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            self.close_connection = True
            raise ValueError(f"Content-Length {declared!r} is not an "
                             f"integer") from None
        if not 0 < length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise ValueError("empty request body" if length <= 0 else
                             f"request body over {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def _parse_rows(self) -> tuple[list[dict], bool]:
        payload = json.loads(self._read_body())
        singleton = "row" in payload if isinstance(payload, dict) \
            else False
        if singleton:
            rows = [payload["row"]]
        elif isinstance(payload, dict) and "rows" in payload:
            rows = payload["rows"]
        else:
            raise ValueError('body must be {"row": {...}} or '
                             '{"rows": [...]}')
        if not isinstance(rows, list) or not rows:
            raise ValueError('"rows" must be a non-empty list')
        return rows, singleton

    def _handle_impute(self, app: "ImputationServer", started: float,
                       request_span) -> None:
        try:
            rows, singleton = self._parse_rows()
            imputed = app.batcher.submit_many(
                rows, timeout=app.request_timeout)
        except (ValueError, KeyError, TypeError,
                json.JSONDecodeError) as error:
            app.metrics.record_request(time.monotonic() - started, ok=False)
            request_span.set(outcome="bad_request")
            self._send_json(400, {"error": str(error)})
            return
        except TimeoutError:
            app.metrics.record_request(time.monotonic() - started, ok=False)
            request_span.set(outcome="timeout")
            self._send_json(503, {"error": "imputation timed out"})
            return
        except BatcherStopped as error:
            # The server is shutting down: tell a keep-alive client to
            # retry elsewhere instead of reusing this connection.
            app.metrics.record_request(time.monotonic() - started, ok=False)
            request_span.set(outcome="unavailable")
            self.close_connection = True
            self._send_json(503, {"error": str(error)},
                            headers={"Retry-After": "1"})
            return
        latency = time.monotonic() - started
        app.metrics.record_request(latency, n_rows=len(imputed))
        request_span.set(outcome="ok", rows=len(imputed))
        body: dict = {"latency_ms": latency * 1e3}
        if singleton:
            body["row"] = imputed[0]
        else:
            body["rows"] = imputed
        self._send_json(200, body)


class ImputationServer:
    """HTTP façade over an :class:`InferenceEngine`.

    Parameters
    ----------
    engine:
        The inference engine (its representations are pinned on server
        construction if they were not already).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    max_batch_size:
        Largest micro-batch (see :class:`MicroBatcher`).
    request_timeout:
        Per-request wait bound, seconds.
    """

    def __init__(self, engine: InferenceEngine, host: str = "127.0.0.1",
                 port: int = 8080, max_batch_size: int = 32,
                 request_timeout: float = 30.0, verbose: bool = False):
        self.engine = engine
        engine.pin()
        self.metrics = ServingMetrics()
        # Aggregate-only tracer shared by the HTTP handlers and the
        # micro-batcher worker: constant memory, exact per-path totals,
        # surfaced under the ``telemetry`` key of ``GET /metrics``.
        self.tracer = Tracer(max_spans=0)
        self.registry = get_registry()
        self.max_batch_size = max_batch_size
        self.request_timeout = request_timeout
        self.verbose = verbose

        self.batcher = MicroBatcher(engine.impute_records,
                                    max_batch_size=max_batch_size)
        self.batcher.on_batch = self.metrics.record_batch
        self.batcher.tracer = self.tracer
        self.started_at = time.monotonic()

        handler = type("BoundHandler", (_Handler,), {"serve_app": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Actually bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Actually bound port (resolved when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "ImputationServer":
        """Serve from a daemon thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful shutdown: close the listener, then drain the batcher.

        The HTTP listener stops accepting first; accepted requests
        drain through the batcher before its worker is joined (no
        accepted request is dropped).  A request that reaches a live
        keep-alive connection afterwards is answered 503.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.batcher.stop()
