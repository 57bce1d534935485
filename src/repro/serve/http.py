"""The stdlib HTTP front end for :class:`~repro.serve.service.CampaignService`.

``HTTPServer`` + ``BaseHTTPRequestHandler`` — no frameworks.  Each
connection is served by one handler thread, and handler threads are
reused: the accept loop hands a connection to an idle thread and starts
a new one only when none is idle (:class:`ReusingHTTPServer`).  A
handler thread does contract work only (parse, validate, respond); all
scheduling stays on the service's single scheduler thread, which the
handlers reach through the multiplexer's lock-safe calls.  Routes:

======  ==============================  =======================================
GET     ``/``                           the live dashboard (single HTML page)
GET     ``/healthz``                    liveness probe (plain ``ok``)
GET     ``/v1/campaigns``               the submittable-campaign catalogue
POST    ``/v1/jobs``                    submit (``repro.serve/1`` body)
GET     ``/v1/jobs``                    this tenant's jobs (``?all=1``: every)
GET     ``/v1/jobs/<id>``               one job envelope
DELETE  ``/v1/jobs/<id>``               cancel (tenant-checked)
GET     ``/v1/workers``                 the worker-fleet envelope
GET     ``/v1/slo``                     percentile latency SLOs (tracing)
GET     ``/v1/events``                  global SSE: ``job``/``snapshot``/``workers``
GET     ``/v1/jobs/<id>/events``        one job's SSE; closes on terminal
======  ==============================  =======================================

On traced runs (``REPRO_TRACE``, :mod:`repro.obs.tracing`) every
``POST /v1/jobs`` opens a ``request`` span — joining an inbound W3C
``traceparent`` header's trace when one is present — and the job
admitted under it inherits the trace, so the response envelope's
``trace_id`` names the whole tree down to per-phase cost records.

The tenant is the ``X-Repro-Tenant`` header (default ``anonymous``).  A
per-job stream accepts ``?cancel_on_disconnect=1``: if the watching
tenant's connection drops mid-campaign, the job is cancelled — in-flight
tasks drain into the store, so a resubmission resumes (docs/SERVICE.md,
"Failure semantics").  Disconnects surface as ``BrokenPipeError`` /
``ConnectionResetError`` on the SSE write; keep-alive comment frames
(``: ping``) make sure an idle stream notices within a few seconds.
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs import tracing as _tracing
from repro.serve.contracts import (
    DEFAULT_TENANT,
    TENANT_HEADER,
    ContractError,
    SubmitRequest,
)
from repro.serve.service import CampaignService
from repro.serve.sse import format_sse_event
from repro.serve.ui import DASHBOARD_HTML

__all__ = ["ReusingHTTPServer", "ServeHandler", "create_server", "serve_forever"]

#: Seconds between keep-alive comments on an idle SSE stream.  Also the
#: disconnect-detection latency: a dead socket only surfaces on a write,
#: so a vanished ``cancel_on_disconnect`` watcher is noticed within about
#: this long.
_KEEPALIVE = 1.0

#: Cap on request bodies; campaign submissions are tiny.
_MAX_BODY = 1 << 20

#: Seconds one read of a request (its line, its headers, its body) may
#: wait for the client.  A read that times out ends the connection, so a
#: client that stalls mid-request, or idles between keep-alive requests,
#: cannot hold a handler thread past it.  SSE streams clear it: their
#: writes may wait on a slow reader.
_READ_TIMEOUT = 30.0


def _reject_constant(token: str) -> Any:
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON numbers."""
    raise ValueError(f"{token} is not valid JSON")


class ServeHandler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.service``."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        # ``handle_one_request`` ends a connection whose read times out,
        # without a traceback.
        self.connection.settimeout(_READ_TIMEOUT)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            # The client left before its reply was written; there is
            # nobody to answer and nothing to report.
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        log = getattr(self.server, "log", None)
        if log is not None:
            log(f"{self.address_string()} {format % args}")

    def _tenant(self) -> str:
        return self.headers.get(TENANT_HEADER, "").strip() or DEFAULT_TENANT

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ContractError) -> None:
        self._send_json(exc.to_dict(), status=exc.status)

    def _content_length(self) -> int:
        """The body's length: one ``Content-Length`` of ASCII digits."""
        values = {v.strip(" \t") for v in self.headers.get_all("Content-Length", [])}
        if len(values) > 1:
            raise ContractError("bad_request", "conflicting Content-Length headers")
        value = values.pop() if values else "0"
        if not (value.isascii() and value.isdigit()):
            raise ContractError("bad_request", "Content-Length is not a decimal number")
        length = int(value)
        if length == 0:
            raise ContractError("bad_request", "request body required")
        if length > _MAX_BODY:
            raise ContractError("bad_request", "request body too large", status=413)
        return length

    def _read_json(self) -> Any:
        try:
            length = self._content_length()
        except ContractError:
            # The body stays unread: end the connection after the reply
            # rather than parse the body as the next request.
            self.close_connection = True
            raise
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise ContractError(
                "bad_request",
                f"request body ended after {len(raw)} of {length} bytes",
            )
        try:
            return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
        except (UnicodeDecodeError, ValueError):
            raise ContractError("bad_request", "request body is not valid JSON")

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:
        path, query = self._route()
        try:
            if path == "/healthz":
                body = b"ok\n"
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif path == "/":
                body = DASHBOARD_HTML.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif path == "/v1/campaigns":
                self._send_json(self.service.campaigns())
            elif path == "/v1/jobs":
                tenant = None if query.get("all") else self._tenant()
                self._send_json(self.service.jobs_view(tenant))
            elif path == "/v1/workers":
                self._send_json(self.service.workers())
            elif path == "/v1/slo":
                self._send_json(self.service.slo())
            elif path == "/v1/events":
                self._stream_events(job_id=None, query=query)
            elif path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/events"):
                    self._stream_events(job_id=rest[: -len("/events")], query=query)
                elif "/" not in rest:
                    self._send_json(self.service.view(self.service.job(rest)))
                else:
                    raise ContractError("not_found", f"no route {path!r}", status=404)
            else:
                raise ContractError("not_found", f"no route {path!r}", status=404)
        except ContractError as exc:
            self._send_error(exc)

    def do_POST(self) -> None:
        path, _ = self._route()
        try:
            if path != "/v1/jobs":
                raise ContractError("not_found", f"no route {path!r}", status=404)
            request = SubmitRequest.from_dict(self._read_json())
            # The root of the distributed trace: a submit under an
            # inbound W3C ``traceparent`` joins the caller's trace,
            # otherwise this request span starts a fresh one.
            span = None
            if _tracing.TRACER.enabled:
                span = _tracing.TRACER.start_span(
                    "POST /v1/jobs", kind="request",
                    parent=_tracing.parse_traceparent(
                        self.headers.get("traceparent")
                    ),
                    attrs={
                        "method": "POST",
                        "path": path,
                        "tenant": self._tenant(),
                        "campaign": request.campaign,
                    },
                )
            status = "ok"
            try:
                job, view = self.service.submit(
                    self._tenant(), request,
                    parent=None if span is None else span.context,
                )
                if span is not None:
                    span.attrs["job"] = job.id
                self._send_json(view, status=201)
            except ContractError:
                status = "error"
                raise
            finally:
                if span is not None:
                    _tracing.TRACER.finish(span, status=status)
        except ContractError as exc:
            self._send_error(exc)

    def do_DELETE(self) -> None:
        path, _ = self._route()
        try:
            if not path.startswith("/v1/jobs/") or "/" in path[len("/v1/jobs/"):]:
                raise ContractError("not_found", f"no route {path!r}", status=404)
            job = self.service.cancel(path[len("/v1/jobs/"):], self._tenant())
            self._send_json(self.service.view(job))
        except ContractError as exc:
            self._send_error(exc)

    # -- SSE -----------------------------------------------------------------

    def _stream_events(self, job_id: Optional[str], query: Dict[str, Any]) -> None:
        cancel_on_disconnect = query.get("cancel_on_disconnect") in ("1", "true")
        sub = self.service.subscribe(job_id)  # raises not_found first
        tenant = self._tenant()
        self.connection.settimeout(None)  # the request is read; SSE writes wait
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        disconnected = False
        try:
            while True:
                item = sub.get(timeout=_KEEPALIVE)
                if item is None:
                    self.wfile.write(b": ping\n\n")
                    self.wfile.flush()
                    continue
                event, data, done = item
                self.wfile.write(
                    format_sse_event(data, event=event).encode("utf-8")
                )
                self.wfile.flush()
                if done and job_id is not None:
                    break
        except (BrokenPipeError, ConnectionResetError, OSError):
            disconnected = True
        finally:
            self.service.unsubscribe(sub)
            if disconnected and cancel_on_disconnect and job_id is not None:
                try:
                    self.service.cancel(job_id, tenant)
                except ContractError:
                    pass  # already terminal, or not this tenant's job
            # SSE owns the connection; never reuse it for another request.
            self.close_connection = True


class ReusingHTTPServer(HTTPServer):
    """An ``HTTPServer`` whose handler threads outlive their connections.

    The accept loop hands each connection to an idle handler thread and
    starts a new (daemon) thread only when none is idle, so a thread's
    start and teardown are paid once per peak open connection instead of
    once per request.  A thread serves one connection at a time: a long
    SSE stream keeps its thread and delays no other request.  A thread
    rejoins the idle list before it closes its connection, so a client
    that has seen one connection end gets the same thread for its next.
    :meth:`server_close` ends and joins the idle threads; a busy thread
    ends when its connection does.
    """

    def __init__(self, server_address: Tuple[str, int], handler: Any) -> None:
        super().__init__(server_address, handler)
        self._lock = threading.Lock()
        #: Each idle thread with the inbox it waits on for a connection.
        self._idle: List[Tuple[threading.Thread, "queue.SimpleQueue[Any]"]] = []
        self._closed = False

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        if idle is not None:
            _, inbox = idle
            inbox.put((request, client_address))
            return
        threading.Thread(
            target=self._serve_connections, args=(request, client_address),
            name="repro-serve-http", daemon=True,
        ).start()

    def _serve_connections(self, request: Any, client_address: Any) -> None:
        inbox: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            with self._lock:
                closed = self._closed
                if not closed:
                    self._idle.append((threading.current_thread(), inbox))
            self.shutdown_request(request)
            item = None if closed else inbox.get()
            if item is None:
                return
            request, client_address = item

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for _, inbox in idle:
            inbox.put(None)
        for thread, _ in idle:
            thread.join()


def create_server(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    log: Optional[Any] = None,
) -> ReusingHTTPServer:
    """Bind a server wired to ``service`` (port 0 = ephemeral)."""
    server = ReusingHTTPServer((host, port), ServeHandler)
    server.service = service  # type: ignore[attr-defined]
    server.log = log  # type: ignore[attr-defined]
    return server


def serve_forever(server: ReusingHTTPServer) -> None:
    """Run until interrupted, then stop the service cleanly."""
    service: CampaignService = server.service  # type: ignore[attr-defined]
    service.start()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        service.stop()
