"""The HTTP front end, end to end on an ephemeral port: routes, SSE, errors."""

import contextlib
import json
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.serve import http as serve_http
from repro.serve.client import ServeClient, ServeError
from repro.serve.http import create_server, serve_forever
from repro.serve.service import CampaignService
from repro.serve.sse import iter_sse


@pytest.fixture
def server(tmp_path):
    service = CampaignService(
        str(tmp_path / "store"), jobs=2, snapshot_interval=0.1
    )
    srv = create_server(service, port=0)
    thread = threading.Thread(target=serve_forever, args=(srv,), daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    deadline = time.monotonic() + 10
    client = ServeClient(f"http://{host}:{port}")
    while not client.healthy():
        assert time.monotonic() < deadline, "server did not come up"
        time.sleep(0.05)
    yield srv
    srv.shutdown()
    thread.join(timeout=10)


def client_for(server, tenant=None):
    host, port = server.server_address[:2]
    return ServeClient(f"http://{host}:{port}", tenant=tenant)


def test_healthz_and_dashboard(server):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
        assert resp.read() == b"ok\n"
    with urllib.request.urlopen(f"http://{host}:{port}/") as resp:
        html = resp.read().decode("utf-8")
    assert "EventSource" in html and "/v1/events" in html


def test_campaign_catalogue(server):
    campaigns = client_for(server).campaigns()
    names = [c["name"] for c in campaigns]
    assert "demo" in names and "chaos" in names
    demo = next(c for c in campaigns if c["name"] == "demo")
    assert [o["name"] for o in demo["options"]] == ["points", "delay"]


def test_submit_watch_complete(server):
    client = client_for(server, tenant="alice")
    job = client.submit("demo", {"points": 3, "delay": 0.0})
    assert job["state"] == "queued"
    assert job["tenant"] == "alice"
    final = client.wait(job["id"], timeout=30)
    assert final["state"] == "done"
    assert final["counts"] == {"done": 4}


def test_submit_answers_with_the_job_as_admitted(tmp_path):
    """The 201 is rendered before the scheduler is woken, so it says
    ``queued`` even when the scheduler activates the job inside the wake."""
    service = CampaignService(
        str(tmp_path / "store"), jobs=1, snapshot_interval=10.0
    )
    mux = service.mux
    # No scheduler thread: the wake itself steps the multiplexer, so
    # the scheduler always wins the race against the handler.
    mux.pool.wake = lambda: mux.step(wait=0.0)
    srv = create_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        job = client_for(srv, tenant="alice").submit(
            "demo", {"points": 3, "delay": 0.0}
        )
        assert mux.job(job["id"]).state == "running"
        assert job["state"] == "queued"
        assert job["counts"] == {"pending": 4}
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.server_close()
        del mux.pool.wake
        service.stop()


def test_duplicate_submission_is_cached_for_second_tenant(server):
    alice = client_for(server, tenant="alice")
    bob = client_for(server, tenant="bob")
    first = alice.submit("demo", {"points": 3, "delay": 0.0})
    assert alice.wait(first["id"], timeout=30)["state"] == "done"
    second = bob.submit("demo", {"points": 3, "delay": 0.0})
    final = bob.wait(second["id"], timeout=30)
    assert final["state"] == "done"
    # The three stored points dedup via the shared store; only the
    # inline summary re-runs.
    assert final["counts"]["cached"] == 3


def test_jobs_listing_is_tenant_scoped(server):
    alice = client_for(server, tenant="alice")
    bob = client_for(server, tenant="bob")
    job = alice.submit("demo", {"points": 2, "delay": 0.0})
    alice.wait(job["id"], timeout=30)
    assert any(j["id"] == job["id"] for j in alice.jobs())
    assert not bob.jobs()
    assert any(j["id"] == job["id"] for j in bob.jobs(all_tenants=True))


def test_get_single_job(server):
    client = client_for(server, tenant="alice")
    job = client.submit("demo", {"points": 2, "delay": 0.0})
    view = client.job(job["id"])
    assert view["id"] == job["id"]
    assert view["campaign"] == "demo"


def test_cancel_via_delete(server):
    client = client_for(server, tenant="alice")
    job = client.submit("demo", {"points": 8, "delay": 0.3})
    client.cancel(job["id"])
    deadline = time.monotonic() + 20
    while not client.job(job["id"])["state"] in ("cancelled", "done"):
        assert time.monotonic() < deadline
        time.sleep(0.05)
    assert client.job(job["id"])["state"] == "cancelled"


def test_cancel_wrong_tenant_is_403(server):
    alice = client_for(server, tenant="alice")
    bob = client_for(server, tenant="bob")
    job = alice.submit("demo", {"points": 6, "delay": 0.2})
    with pytest.raises(ServeError) as excinfo:
        bob.cancel(job["id"])
    assert excinfo.value.code == "wrong_tenant"
    assert excinfo.value.status == 403
    alice.cancel(job["id"])


@pytest.mark.parametrize("body,status,code", [
    (b"not json", 400, "bad_request"),
    (b'{"schema": "repro.serve/9", "campaign": "demo"}', 400, "bad_schema"),
    (b'{"schema": "repro.serve/1", "campaign": "nope"}', 404, "unknown_campaign"),
    (b'{"schema": "repro.serve/1", "campaign": "demo", '
     b'"options": {"points": -1}}', 400, "bad_option"),
])
def test_error_envelopes(server, body, status, code):
    host, port = server.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}/v1/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req)
    assert excinfo.value.code == status
    payload = json.loads(excinfo.value.read().decode("utf-8"))
    assert payload["schema"] == "repro.serve/1"
    assert payload["error"]["code"] == code


def test_unknown_route_is_404(server):
    client = client_for(server)
    with pytest.raises(ServeError) as excinfo:
        client._json("/v1/bogus")
    assert excinfo.value.status == 404


def test_watch_unknown_job_is_404(server):
    client = client_for(server, tenant="alice")
    with pytest.raises(ServeError) as excinfo:
        list(client.watch("job-9999"))
    assert excinfo.value.code == "not_found"


def test_global_event_stream_carries_snapshots_and_jobs(server):
    """/v1/events is the dashboard feed: metrics snapshots + job updates."""
    client = client_for(server, tenant="alice")
    resp = client._request("/v1/events", timeout=30)
    job = client.submit("demo", {"points": 2, "delay": 0.0})
    seen = {"snapshot": None, "job": None}

    def chunks():
        while True:
            block = resp.read1(4096)
            if not block:
                return
            yield block.decode("utf-8")

    deadline = time.monotonic() + 20
    for event in iter_sse(chunks()):
        if event["event"] == "snapshot":
            snap = json.loads(event["data"])
            assert snap["schema"] == "repro.metrics/1"
            seen["snapshot"] = snap
        elif event["event"] == "job":
            view = json.loads(event["data"])
            assert view["schema"] == "repro.serve/1"
            if view["job"]["id"] == job["id"] and view["job"]["state"] == "done":
                seen["job"] = view
        if all(seen.values()) or time.monotonic() > deadline:
            break
    resp.close()
    assert seen["snapshot"] is not None
    assert seen["job"] is not None


def test_watch_stream_closes_on_terminal(server):
    client = client_for(server, tenant="alice")
    job = client.submit("demo", {"points": 2, "delay": 0.0})
    states = [env["job"]["state"] for env in client.watch(job["id"], timeout=30)]
    assert states  # at least the terminal frame
    assert states[-1] == "done"


def test_disconnect_with_cancel_on_disconnect_cancels_job(server):
    """A watching tenant that vanishes mid-campaign cancels its job."""
    client = client_for(server, tenant="alice")
    # Long enough (16 points x 2s over 2 workers ~ 16s) that the server's
    # keep-alive write hits the dead socket well before completion: the
    # first write after the FIN still lands in the kernel buffer, so
    # detection costs two ping intervals (~2-3s), not one.
    job = client.submit("demo", {"points": 16, "delay": 2.0})
    # A raw socket, not urllib: the disconnect must happen at the OS
    # level (FIN, then RST against the server's next writes).  urllib's
    # response.close() leaves the fd to a reference cycle the cyclic GC
    # collects at its leisure, so the server would keep writing pings
    # into a live socket and never see the tenant vanish.
    import socket as socketlib
    host, port = server.server_address[:2]
    raw = socketlib.create_connection((host, port), timeout=10)
    raw.sendall(
        (
            f"GET /v1/jobs/{job['id']}/events?cancel_on_disconnect=1 HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\nX-Repro-Tenant: alice\r\n\r\n"
        ).encode("ascii")
    )
    # Read one chunk so the stream is established, then drop the socket.
    assert raw.recv(1)
    raw.close()
    deadline = time.monotonic() + 20
    while client.job(job["id"])["state"] not in ("cancelled", "done"):
        assert time.monotonic() < deadline
        time.sleep(0.05)
    assert client.job(job["id"])["state"] == "cancelled"
    # Resubmitting resumes from whatever the drain stored.
    again = client.submit("demo", {"points": 8, "delay": 0.3})
    final = client.wait(again["id"], timeout=60)
    assert final["state"] == "done"


def test_slo_route_reports_disabled_without_tracing(server):
    """GET /v1/slo answers 200 with enabled=false when $REPRO_TRACE is off."""
    from repro.obs.tracing import TRACER

    if TRACER.enabled:
        pytest.skip("REPRO_TRACE is on in this environment")
    slo = client_for(server).slo()
    assert slo["enabled"] is False
    assert set(slo) == {"enabled", "window", "task", "end_to_end"}
    assert slo["task"]["count"] == 0


def test_job_view_trace_id_null_without_tracing(server):
    from repro.obs.tracing import TRACER

    if TRACER.enabled:
        pytest.skip("REPRO_TRACE is on in this environment")
    client = client_for(server, tenant="alice")
    job = client.submit("demo", {"points": 2, "delay": 0.0})
    assert "trace_id" in job and job["trace_id"] is None


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
def test_non_json_number_tokens_are_rejected(server, token):
    host, port = server.server_address[:2]
    body = (b'{"schema": "repro.serve/1", "campaign": "demo", '
            b'"options": {"points": 2, "delay": ' + token + b'}}')
    req = urllib.request.Request(
        f"http://{host}:{port}/v1/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req)
    assert excinfo.value.code == 400
    payload = json.loads(excinfo.value.read().decode("utf-8"))
    assert payload["error"]["code"] == "bad_request"
    assert client_for(server).jobs() == []


# -- handler threads and raw request bodies -----------------------------------

SUBMIT = b'{"schema": "repro.serve/1", "campaign": "demo"}'
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


@contextlib.contextmanager
def running_server(tmp_path):
    """A served ``create_server`` that has taken no connection yet; on exit,
    ``serve_forever`` returns and runs ``server_close`` and ``service.stop``."""
    service = CampaignService(
        str(tmp_path / "store"), jobs=1, snapshot_interval=10.0
    )
    srv = create_server(service, port=0)
    thread = threading.Thread(target=serve_forever, args=(srv,), daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()


def handler_threads():
    return {t for t in threading.enumerate() if t.name == "repro-serve-http"}


def read_until(sock, marker):
    """Read until ``marker`` has arrived; the server must not close first."""
    data = b""
    while marker not in data:
        block = sock.recv(65536)
        assert block, f"the server closed the connection before {marker!r}"
        data += block
    return data


def read_to_end(sock):
    """Everything the server sends until it ends the connection."""
    chunks = []
    try:
        while True:
            block = sock.recv(65536)
            if not block:
                break
            chunks.append(block)
    except ConnectionResetError:
        pass  # closed with part of a bad body unread; the reply came first
    return b"".join(chunks)


def exchange(server, request):
    """Send ``request``, half-close, and read the reply to the end."""
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        return read_to_end(sock)


def post(headers, body):
    return (b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n" + headers + b"\r\n" + body)


def error_code(reply):
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head, "the server closed the connection without a reply"
    return int(head.split()[1]), json.loads(body)["error"]["code"]


def test_open_event_streams_do_not_starve_a_submit(server):
    """Each open SSE stream holds a handler thread; a submit and its watch
    still get threads of their own."""
    streams = []
    try:
        for _ in range(16):
            sock = socket.create_connection(server.server_address[:2], timeout=10)
            streams.append(sock)
            sock.sendall(b"GET /v1/events HTTP/1.1\r\nHost: t\r\n\r\n")
            # The stream's headers arrive once a thread is serving it.
            assert read_until(sock, b"\r\n\r\n").startswith(b"HTTP/1.1 200")
        client = client_for(server, tenant="alice")
        job = client.submit("demo", {"points": 2, "delay": 0.0})
        assert client.wait(job["id"], timeout=30)["state"] == "done"
    finally:
        for sock in streams:
            sock.close()


def test_handler_threads_are_reused_and_end_at_server_close(tmp_path):
    before = handler_threads()
    with running_server(tmp_path) as srv:
        address = srv.server_address[:2]
        # Three keep-alive connections open at once hold three threads.
        socks = [socket.create_connection(address, timeout=10) for _ in range(3)]
        for sock in socks:
            sock.sendall(HEALTHZ)
            read_until(sock, b"\r\n\r\nok\n")
        threads = handler_threads() - before
        assert len(threads) == 3
        for sock in socks:
            sock.shutdown(socket.SHUT_WR)
            assert read_to_end(sock) == b""
            sock.close()
        # A connection that has ended left its thread idle; later
        # connections reuse it instead of starting another.
        for _ in range(5):
            assert exchange(srv, HEALTHZ).endswith(b"\r\n\r\nok\n")
        assert handler_threads() - before == threads
    assert not any(t.is_alive() for t in threads)


def test_a_handler_that_raises_leaves_its_thread_serving(server, monkeypatch, capsys):
    calls = []

    def workers():
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("planted handler fault")
        return {"schema": "repro.serve/1", "workers": [], "live": 0}

    monkeypatch.setattr(server.service, "workers", workers)
    client = client_for(server)
    with pytest.raises(ConnectionError):
        client.workers()
    assert "planted handler fault" in capsys.readouterr().err
    # The failed connection ended after its thread went idle again, so
    # the next request is served on that thread.
    threads = handler_threads()
    assert client.workers()["live"] == 0
    assert handler_threads() <= threads
    assert len(calls) == 2


@pytest.mark.parametrize("headers", [
    b"Content-Length: abc\r\n",
    b"Content-Length: 5_0\r\n",
    b"Content-Length: +50\r\n",
    b"Content-Length: 50 50\r\n",
    "Content-Length: \u0665\u0660\r\n".encode("utf-8"),  # Arabic-Indic 50
    b"Content-Length: 50\r\nContent-Length: 51\r\n",
], ids=["letters", "underscore", "plus", "two-numbers", "non-ascii", "conflicting"])
def test_a_bad_content_length_is_a_400(server, headers):
    # A body of 50 bytes, which is what int() makes of the numeric ones.
    reply = exchange(server, post(headers, SUBMIT.ljust(50)))
    assert error_code(reply) == (400, "bad_request")
    assert client_for(server).jobs(all_tenants=True) == []


def test_a_body_that_ends_early_is_a_400(server):
    headers = b"Content-Length: %d\r\n" % (len(SUBMIT) + 10)
    reply = exchange(server, post(headers, SUBMIT))
    assert error_code(reply) == (400, "bad_request")
    assert client_for(server).jobs(all_tenants=True) == []


def test_a_client_gone_before_its_reply_leaves_no_traceback(tmp_path, capsys):
    with running_server(tmp_path) as srv:
        finished = threading.Event()
        shutdown_request = srv.shutdown_request

        def shutdown_and_note(request):
            shutdown_request(request)
            finished.set()

        srv.shutdown_request = shutdown_and_note
        sock = socket.create_connection(srv.server_address[:2], timeout=10)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(post(b"Content-Length: 100\r\n", SUBMIT[:20]))
        sock.close()  # linger 0: a reset, the client is gone
        assert finished.wait(10), "the connection was never finished"
        assert "Traceback" not in capsys.readouterr().err
        client = client_for(srv)
        assert client.healthy()
        assert client.jobs(all_tenants=True) == []


def test_a_request_that_stalls_mid_body_frees_its_thread(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(serve_http, "_READ_TIMEOUT", 0.5)
    before = handler_threads()
    with running_server(tmp_path) as srv:
        socks = [socket.create_connection(srv.server_address[:2], timeout=5)
                 for _ in range(5)]
        try:
            for sock in socks:
                sock.sendall(post(b"Content-Length: 100\r\n", SUBMIT[:10]))
            # Each read times out and the server ends the connection, with
            # no reply; its thread is idle again before the connection ends.
            for sock in socks:
                assert read_to_end(sock) == b""
        finally:
            for sock in socks:
                sock.close()
        threads = handler_threads() - before
        assert len(threads) == 5
        client = client_for(srv, tenant="alice")
        job = client.submit("demo", {"points": 2, "delay": 0.0})
        assert client.wait(job["id"], timeout=30)["state"] == "done"
        assert handler_threads() - before == threads
    assert "Traceback" not in capsys.readouterr().err
