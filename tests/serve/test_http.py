"""The HTTP front end, end to end on an ephemeral port: routes, SSE, errors."""

import json
import threading
import time
import urllib.request

import pytest

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
