"""The tracing acceptance path, end to end on real sockets and processes.

One HTTP submit with ``$REPRO_TRACE`` on must yield a *single*
``trace_id`` whose span tree covers the whole causal story:

    inbound traceparent -> HTTP request span -> job span -> task spans
    -> exec spans on remote TCP workers (surviving one forced requeue)
    -> per-phase cost records stamped with the exec context

and the scheduler-side + worker-side trace files must merge into one
Perfetto trace whose flow events link the service lane to the phase
lane.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.obs import tracing
from repro.obs.exporters import SERVICE_PID, write_combined_trace
from repro.obs.records import PhaseCostRecord
from repro.sched.net.worker import spawn_local_workers
from repro.serve.client import ServeClient
from repro.serve.contracts import SCHEMA, TENANT_HEADER
from repro.serve.http import create_server, serve_forever
from repro.serve.service import CampaignService

INBOUND_TRACE = "c0" * 16
INBOUND_SPAN = "d1" * 8


@pytest.fixture
def traced(monkeypatch, tmp_path):
    """Tracing on here AND in worker subprocesses, with split sinks."""
    sched_file = tmp_path / "sched-trace.jsonl"
    worker_file = tmp_path / "worker-trace.jsonl"
    monkeypatch.setenv(tracing.TRACE_ENV, "1")
    # Workers inherit the env: each appends its exec spans to its own
    # host-side file, the multi-host story `trace merge` folds back in.
    monkeypatch.setenv(tracing.TRACE_PATH_ENV, str(worker_file))
    tracing.TRACER.reset()
    tracing.TRACER.configure(enabled=True, path=str(sched_file))
    yield str(sched_file), str(worker_file)
    tracing.TRACER.configure(enabled=False)
    tracing.TRACER.reset()


def _submit_with_traceparent(base_url, campaign, options):
    body = json.dumps(
        {"schema": SCHEMA, "campaign": campaign, "options": options}
    ).encode("utf-8")
    req = urllib.request.Request(
        f"{base_url}/v1/jobs",
        data=body,
        headers={
            "Content-Type": "application/json",
            TENANT_HEADER: "alice",
            "traceparent": f"00-{INBOUND_TRACE}-{INBOUND_SPAN}-01",
        },
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))["job"]


def _wait_until(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(message)
        time.sleep(0.05)


def test_one_trace_id_from_http_to_phase_records(traced, tmp_path):
    sched_file, worker_file = traced
    service = CampaignService(
        str(tmp_path / "store"), jobs=2, snapshot_interval=0.1,
        workers_port=0,
    )
    srv = create_server(service, port=0)
    thread = threading.Thread(target=serve_forever, args=(srv,), daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    base_url = f"http://{host}:{port}"
    client = ServeClient(base_url, tenant="alice")
    pool = service.mux.pool
    procs = []
    try:
        _wait_until(client.healthy, 10.0, "server did not come up")
        procs = spawn_local_workers(pool.address, 2, name_prefix="e2e")
        _wait_until(
            lambda: len(pool.registry.live()) >= 2, 10.0,
            "workers never registered",
        )

        job = _submit_with_traceparent(
            base_url, "demo", {"points": 4, "delay": 0.4}
        )
        # The job adopted the inbound traceparent's trace id.
        assert job["trace_id"] == INBOUND_TRACE

        # Force a requeue: SIGKILL worker e2e-0 while it holds a task.
        def victim_busy():
            rows = {r["name"]: r for r in pool.fleet()}
            row = rows.get("e2e-0")
            return row is not None and row["current"] is not None

        _wait_until(victim_busy, 15.0, "worker e2e-0 never got a task")
        procs[0].kill()

        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "done"
        assert pool.stats["requeues"] >= 1, "forced requeue never happened"
        slo = client.slo()
        assert slo["enabled"] and slo["end_to_end"]["count"] >= 1
        outcomes = dict(service.mux._jobs[job["id"]].execution.outcomes)
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except Exception:
                proc.kill()
                proc.wait()

    # -- one merged trace across both hosts' files --------------------------
    merged = tracing.merge_trace_files([sched_file, worker_file])
    ours = [r for r in merged if r["trace_id"] == INBOUND_TRACE]
    assert ours, "no spans carried the inbound trace id"
    assert len({r["trace_id"] for r in ours}) == 1

    by_kind = {}
    for row in ours:
        by_kind.setdefault(row["kind"], []).append(row)
    assert set(by_kind) >= {"request", "job", "task", "exec"}

    # The tree: request roots under the inbound context, the job under
    # the request, tasks under the job, execs under their tasks.
    (request,) = by_kind["request"]
    assert request["parent_span_id"] == INBOUND_SPAN
    (job_span,) = by_kind["job"]
    assert job_span["parent_span_id"] == request["span_id"]
    task_ids = {t["span_id"] for t in by_kind["task"]}
    assert all(t["parent_span_id"] == job_span["span_id"] for t in by_kind["task"])
    assert all(e["parent_span_id"] in task_ids for e in by_kind["exec"])
    # 4 remote points + the inline summary task.
    assert len(by_kind["task"]) == 5
    # Exec spans really ran elsewhere: a worker subprocess host tag.
    assert any(e["host"] != request["host"] for e in by_kind["exec"])

    # -- phase cost records stamped with the exec context -------------------
    exec_ids = {e["span_id"] for e in by_kind["exec"]}
    phase_lanes = []
    stamped = 0
    for name, outcome in outcomes.items():
        if not isinstance(outcome, dict) or not outcome.get("cost_records"):
            continue
        records = [PhaseCostRecord.from_dict(d) for d in outcome["cost_records"]]
        phase_lanes.append((name, records))
        for rec in records:
            if rec.trace is not None:
                assert rec.trace["trace_id"] == INBOUND_TRACE
                assert rec.trace["span_id"] in exec_ids
                stamped += 1
    assert len(phase_lanes) == 4, "every demo point should carry cost records"
    assert stamped > 0, "no phase record carried a trace stamp"

    # -- one Perfetto file with flow links service lane -> phase lane -------
    out = tmp_path / "merged-trace.json"
    write_combined_trace(str(out), phase_lanes=phase_lanes, trace_spans=ours)
    payload = json.loads(out.read_text())
    events = payload["traceEvents"]
    service_slices = [
        e for e in events if e.get("ph") == "X" and e.get("pid") == SERVICE_PID
    ]
    assert len(service_slices) == len(ours)
    starts = [e for e in events if e.get("ph") == "s"]
    finishes = [e for e in events if e.get("ph") == "f"]
    assert starts and finishes
    flow_ids = {e["id"] for e in starts} & {e["id"] for e in finishes}
    assert flow_ids, "no complete flow arrow in the merged trace"
    # At least one flow leaves the service pid for a phase lane pid.
    start_pids = {e["id"]: e["pid"] for e in starts}
    finish_pids = {e["id"]: e["pid"] for e in finishes}
    assert any(
        start_pids[i] == SERVICE_PID and finish_pids[i] != SERVICE_PID
        for i in flow_ids
    ), "no flow links the span tree to a phase-cost row"
