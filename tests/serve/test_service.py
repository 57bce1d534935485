"""The multi-tenant scheduling layer: fair-share, quotas, dedup, cancel.

Exercises :class:`repro.sched.tenancy.FairShareMultiplexer` directly
(deterministic stepping, no threads) and
:class:`repro.serve.service.CampaignService` for the threaded
service-level semantics: disconnect-cancel, resubmit-resume, and the
event hub.
"""

import os
import time

import pytest

from repro.obs import metrics as _metrics
from repro.sched import tenancy
from repro.sched.campaign import Campaign, TaskSpec
from repro.sched.store import ResultStore
from repro.sched.tenancy import FairShareMultiplexer, QuotaExceeded, TenantQuota
from repro.serve.contracts import ContractError, SubmitRequest, job_view
from repro.serve.service import CampaignService


# Module-level task functions (pool tasks must pickle).

def emit(value, tenant="", marker_dir=None, name="", delay=0.0):
    """Return a small outcome; optionally count executions via marker files."""
    if delay:
        time.sleep(delay)
    if marker_dir is not None:
        count_file = os.path.join(marker_dir, f"{name}.count")
        count = int(open(count_file).read()) if os.path.exists(count_file) else 0
        with open(count_file, "w") as fh:
            fh.write(str(count + 1))
    return {"value": value, "correct": True}


def flaky_once(marker_dir, delay=0.0):
    """Fail on the first execution, succeed afterwards (cross-process state)."""
    if delay:
        time.sleep(delay)
    count_file = os.path.join(marker_dir, "flaky.count")
    count = int(open(count_file).read()) if os.path.exists(count_file) else 0
    with open(count_file, "w") as fh:
        fh.write(str(count + 1))
    if count == 0:
        raise RuntimeError("first execution fails")
    return {"value": count, "correct": True}


def fanout(tenant, n, **extra):
    """An n-task campaign whose specs are distinct per tenant."""
    tasks = tuple(
        TaskSpec(f"{tenant}/{i}", emit,
                 kwargs={"value": i, "tenant": tenant, **extra})
        for i in range(n)
    )
    return Campaign(f"fanout-{tenant}", tasks)


def shared(n, **extra):
    """An n-task campaign with tenant-independent specs (dedup bait)."""
    tasks = tuple(
        TaskSpec(f"point/{i}", emit, kwargs={"value": i, **extra})
        for i in range(n)
    )
    return Campaign("shared", tasks)


def drive(mux, timeout=30.0, wait=0.05):
    t0 = time.monotonic()
    while mux.active:
        mux.step(wait=wait)
        assert time.monotonic() - t0 < timeout, "multiplexer did not converge"


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def mux(store):
    m = FairShareMultiplexer(store, jobs=2)
    yield m
    m.shutdown()


# -- fair share --------------------------------------------------------------

def test_two_tenants_both_finish(mux):
    a = mux.submit("alice", fanout("alice", 4))
    b = mux.submit("bob", fanout("bob", 4))
    drive(mux)
    assert a.state == "done" and b.state == "done"
    assert a.counts() == {"done": 4}
    assert b.counts() == {"done": 4}


def test_fair_share_interleaves_tenants(mux):
    """Neither tenant's frontier starves: early pool slots go to both."""
    a = mux.submit("alice", fanout("alice", 6, delay=0.05))
    b = mux.submit("bob", fanout("bob", 6, delay=0.05))
    drive(mux)
    spans = sorted(a.spans + b.spans, key=lambda s: s.start)
    first_four = {s.name.split("/")[0] for s in spans[:4]}
    assert first_four == {"alice", "bob"}, [s.name for s in spans]


def test_jobs_within_tenant_run_oldest_first(mux):
    first = mux.submit("alice", fanout("alice", 3))
    second = mux.submit("alice", shared(3))
    drive(mux)
    assert first.state == "done" and second.state == "done"
    assert first.finished <= second.finished


# -- quotas ------------------------------------------------------------------

def test_quota_rejects_excess_jobs(store):
    mux = FairShareMultiplexer(store, jobs=1, quota=TenantQuota(max_jobs=1))
    try:
        mux.submit("alice", fanout("alice", 2))
        with pytest.raises(QuotaExceeded) as excinfo:
            mux.submit("alice", shared(2))
        assert excinfo.value.code == "quota_jobs"
        # Another tenant is unaffected, and a finished job frees the slot.
        mux.submit("bob", fanout("bob", 2))
        drive(mux)
        mux.submit("alice", shared(2))
        drive(mux)
    finally:
        mux.shutdown()


def test_quota_rejects_oversized_campaign(store):
    mux = FairShareMultiplexer(
        store, jobs=1, quota=TenantQuota(max_tasks_per_job=3)
    )
    try:
        with pytest.raises(QuotaExceeded) as excinfo:
            mux.submit("alice", fanout("alice", 4))
        assert excinfo.value.code == "quota_tasks"
    finally:
        mux.shutdown()


def test_quota_validation():
    with pytest.raises(ValueError):
        TenantQuota(max_jobs=0)
    with pytest.raises(ValueError):
        TenantQuota(max_tasks_in_flight=0)
    with pytest.raises(ValueError):
        TenantQuota(max_tasks_per_job=0)


# -- cross-tenant dedup ------------------------------------------------------

def test_dedup_after_completion(mux, tmp_path):
    """A spec already served for tenant A resumes as cached for tenant B."""
    marker = str(tmp_path / "markers")
    os.makedirs(marker)
    a = mux.submit("alice", shared(3, marker_dir=marker, name="p"))
    drive(mux)
    b = mux.submit("bob", shared(3, marker_dir=marker, name="p"))
    drive(mux)
    assert a.counts() == {"done": 3}
    assert b.counts() == {"cached": 3}
    # Three distinct specs, each executed exactly once across both tenants.
    assert open(os.path.join(marker, "p.count")).read() == "3"


def test_dedup_of_in_flight_work(mux):
    """A task already executing for tenant A completes as cached for B."""
    a = mux.submit("alice", shared(4, delay=0.3))
    mux.step(wait=0.05)  # get alice's tasks onto the pool
    b = mux.submit("bob", shared(4, delay=0.3))
    drive(mux)
    assert a.state == "done" and b.state == "done"
    assert b.counts() == {"cached": 4}
    # No double execution: the pool only ever ran alice's four tasks.
    assert mux.pool.stats["tasks_completed"] == 4


def test_failed_owner_requeues_waiters(store, tmp_path):
    """If the owning job's task fails, a parked waiter executes it itself."""
    marker = str(tmp_path / "markers")
    os.makedirs(marker)
    mux = FairShareMultiplexer(store, jobs=1)
    try:
        flaky_task = Campaign(
            "flaky",
            (TaskSpec("a", flaky_once,
                      kwargs={"marker_dir": marker, "delay": 0.3}),),
        )
        a = mux.submit("alice", flaky_task)
        mux.step(wait=0.05)  # alice's (doomed) first execution in flight
        b = mux.submit("bob", flaky_task)
        drive(mux)
        # Alice's execution failed; bob's parked waiter was requeued,
        # re-executed the task itself, and succeeded.
        assert a.state == "failed"
        assert b.state == "done"
        assert open(os.path.join(marker, "flaky.count")).read() == "2"
    finally:
        mux.shutdown()


# -- cancellation ------------------------------------------------------------

def test_cancel_queued_job_is_immediate(mux):
    job = mux.submit("alice", fanout("alice", 3))
    assert mux.cancel(job.id).state == "cancelled"
    assert job.counts() == {"pending": 3}


def test_cancel_running_job_drains_into_store(mux, store):
    job = mux.submit("alice", fanout("alice", 6, delay=0.2))
    deadline = time.monotonic() + 20
    while not job.execution.in_flight and time.monotonic() < deadline:
        mux.step(wait=0.05)
    mux.cancel(job.id)
    drive(mux)
    assert job.state == "cancelled"
    counts = job.counts()
    assert counts.get("pending", 0) > 0  # cancelled before completion
    # The drained in-flight results reached the store: a resubmission
    # resumes instead of starting over.
    resumed = mux.submit("alice", fanout("alice", 6, delay=0.2))
    drive(mux)
    assert resumed.state == "done"
    assert resumed.counts().get("cached", 0) >= 1


def test_cancel_unknown_job_returns_none(mux):
    assert mux.cancel("job-9999") is None


def test_old_finished_jobs_are_released_but_stay_queryable(mux, monkeypatch):
    """Every job stays listed and shows the same view; only the newest
    finished jobs keep their per-task state, and ids are never reused."""
    monkeypatch.setattr(tenancy, "DETAILED_JOBS", 2)
    jobs, views = [], []
    for i in range(3):
        jobs.append(mux.submit("alice", fanout("alice", 2, name=f"j{i}")))
        drive(mux)  # one at a time: jobs finish in submission order
        views.append(job_view(jobs[-1]))
    assert mux.jobs() == jobs
    assert [mux.job(j.id) for j in jobs] == jobs
    assert [job_view(j) for j in jobs] == views
    assert views[0]["job"]["counts"] == {"done": 2}
    assert jobs[0].execution is None and jobs[0].spans == ()
    assert all(j.execution is not None and j.spans for j in jobs[1:])
    with pytest.raises(ValueError, match="duplicate job id"):
        mux.submit("alice", fanout("alice", 1), job_id=jobs[0].id)


def test_shutdown_with_a_running_job_after_releases(mux, monkeypatch):
    """Finishing the running job at shutdown releases an older one
    without disturbing the scan over the job table."""
    monkeypatch.setattr(tenancy, "DETAILED_JOBS", 1)
    done = []
    for i in range(2):
        done.append(mux.submit("alice", fanout("alice", 1, name=f"j{i}")))
        drive(mux)
    running = mux.submit("alice", fanout("alice", 2, name="slow", delay=0.5))
    deadline = time.monotonic() + 20
    while not running.execution.in_flight and time.monotonic() < deadline:
        mux.step(wait=0.05)
    assert running.execution.in_flight
    mux.shutdown()
    assert running.state == "cancelled"
    assert [j.state for j in done] == ["done", "done"]
    assert done[1].execution is None  # released when `running` finished


def test_fully_cached_resubmission_after_releases(mux, monkeypatch):
    """A job the resume pass completes finishes inside the activation
    scan; releasing an older job there must not break the scheduler."""
    monkeypatch.setattr(tenancy, "DETAILED_JOBS", 1)
    for i in range(2):
        mux.submit("alice", fanout("alice", 1, name=f"j{i}"))
        drive(mux)
    again = mux.submit("alice", fanout("alice", 1, name="j0"))
    drive(mux)
    assert again.state == "done"
    assert again.counts() == {"cached": 1}
    later = mux.submit("bob", fanout("bob", 1))
    drive(mux)
    assert later.state == "done"


# -- the threaded service ----------------------------------------------------

def demo_request(points=3, delay=0.0):
    return SubmitRequest("demo", {"points": points, "delay": delay})


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(
        str(tmp_path / "store"), jobs=2, snapshot_interval=0.1
    )
    svc.start()
    yield svc
    svc.stop()


def test_service_runs_submission_to_done(service):
    job = service.submit("alice", demo_request())
    assert wait_for(lambda: service.job(job.id).terminal)
    assert service.job(job.id).state == "done"


def test_service_rejects_unknown_campaign(service):
    with pytest.raises(ContractError) as excinfo:
        service.submit("alice", SubmitRequest("nope", {}))
    assert excinfo.value.code == "unknown_campaign"
    assert excinfo.value.status == 404


def test_service_maps_quota_to_429(tmp_path):
    svc = CampaignService(
        str(tmp_path / "store"), jobs=1,
        quota=TenantQuota(max_jobs=1), snapshot_interval=0.1,
    )
    try:
        svc.submit("alice", demo_request(points=4, delay=0.2))
        with pytest.raises(ContractError) as excinfo:
            svc.submit("alice", demo_request())
        assert excinfo.value.code == "quota_jobs"
        assert excinfo.value.status == 429
    finally:
        svc.stop()


def test_service_cancel_is_tenant_checked(service):
    job = service.submit("alice", demo_request(points=6, delay=0.2))
    with pytest.raises(ContractError) as excinfo:
        service.cancel(job.id, "bob")
    assert excinfo.value.code == "wrong_tenant"
    assert excinfo.value.status == 403
    service.cancel(job.id, "alice")
    assert wait_for(lambda: service.job(job.id).terminal)
    assert service.job(job.id).state == "cancelled"


def test_disconnect_cancel_then_resubmit_resumes(service):
    """The ISSUE semantics: cancel mid-run, resubmit, resume from the store."""
    job = service.submit("alice", demo_request(points=6, delay=0.2))
    # Wait until some work has completed, as a disconnecting watcher would.
    assert wait_for(
        lambda: service.job(job.id).counts().get("done", 0) >= 1
    )
    service.cancel(job.id, "alice")  # what the SSE handler does on disconnect
    assert wait_for(lambda: service.job(job.id).terminal)
    cancelled = service.job(job.id)
    assert cancelled.state == "cancelled"
    assert cancelled.counts().get("pending", 0) > 0
    resubmitted = service.submit("alice", demo_request(points=6, delay=0.2))
    assert wait_for(lambda: service.job(resubmitted.id).terminal)
    final = service.job(resubmitted.id)
    assert final.state == "done"
    assert final.counts().get("cached", 0) >= 1


def test_subscription_streams_job_events(service):
    sub = service.subscribe()
    try:
        job = service.submit("alice", demo_request())
        assert wait_for(lambda: service.job(job.id).terminal)
        seen_states = set()
        deadline = time.monotonic() + 10
        import json as _json

        while time.monotonic() < deadline:
            item = sub.get(timeout=0.2)
            if item is None:
                continue
            event, data, _ = item
            if event == "job":
                view = _json.loads(data)["job"]
                if view["id"] == job.id:
                    seen_states.add(view["state"])
                    if view["state"] in ("done", "failed"):
                        break
        assert "done" in seen_states
    finally:
        service.unsubscribe(sub)


def test_per_job_subscription_primed_with_terminal_state(service):
    job = service.submit("alice", demo_request())
    assert wait_for(lambda: service.job(job.id).terminal)
    sub = service.subscribe(job.id)  # attach *after* completion
    try:
        item = sub.get(timeout=2.0)
        assert item is not None
        event, _, done = item
        assert event == "job" and done
    finally:
        service.unsubscribe(sub)


def test_service_restores_metrics_state(tmp_path):
    was_enabled = _metrics.REGISTRY.enabled
    assert not was_enabled  # tests run with the registry off
    svc = CampaignService(str(tmp_path / "store"), jobs=1)
    assert _metrics.REGISTRY.enabled
    svc.stop()
    assert not _metrics.REGISTRY.enabled


# -- the wake: an idle scheduler sleeps, and a submission ends the sleep ----

@pytest.mark.parametrize("workers_port", [None, 0], ids=["local", "remote"])
def test_submission_to_an_idle_service_is_admitted_at_once(tmp_path, workers_port):
    """A submit wakes the scheduler out of its 0.2 s ``step`` wait, on a
    pool of forked workers and on one listening for remote workers."""
    svc = CampaignService(
        str(tmp_path / "store"), jobs=1, snapshot_interval=10.0,
        workers_port=workers_port,
    )
    svc.start()
    try:
        time.sleep(0.5)  # let the scheduler settle into its idle wait
        job = svc.submit("alice", demo_request(points=1))
        assert wait_for(lambda: svc.job(job.id).started > 0, timeout=5.0)
        assert svc.job(job.id).started - job.created < 0.1
    finally:
        svc.stop()


def test_per_job_subscription_races_a_finishing_job(tmp_path, monkeypatch):
    """A job that goes terminal while ``subscribe`` builds its primer
    must still end the stream on a terminal view: the transition either
    lands in the primer or is broadcast to the already-registered queue."""
    import json as _json
    import threading

    from repro.serve import service as service_module

    svc = CampaignService(str(tmp_path / "store"), jobs=1, snapshot_interval=10.0)
    try:
        job = svc.submit("alice", demo_request(points=2))  # queued: no scheduler
        real_view = service_module.job_view
        racer = []

        def job_view_finishing_mid_read(record):
            view = real_view(record)
            if not racer:
                # Another thread cancels and broadcasts while the primer
                # is being built — the interleaving subscribe must survive.
                def cancel_and_broadcast():
                    svc.mux.cancel(job.id)
                    svc._broadcast_job(svc.job(job.id))

                racer.append(threading.Thread(target=cancel_and_broadcast))
                racer[0].start()
                racer[0].join(timeout=0.5)
            return view

        monkeypatch.setattr(service_module, "job_view", job_view_finishing_mid_read)
        sub = svc.subscribe(job.id)
        racer[0].join(timeout=10.0)
        assert not racer[0].is_alive()
        items = []
        while True:
            item = sub.get(timeout=2.0)
            assert item is not None, f"stream never ended: {items}"
            items.append(item)
            if item[2]:
                break
        event, data, _ = items[-1]
        assert event == "job"
        assert _json.loads(data)["job"]["state"] == "cancelled"
        svc.unsubscribe(sub)
    finally:
        svc.stop()


def _cpu_seconds(pid):
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc (Linux)")
def test_idle_service_does_not_spin(tmp_path):
    """An idle ``serve run`` with warm local workers blocks in ``select``:
    well under 0.5 CPU-s over 5 s (the scheduler used to spin a core)."""
    import signal
    import subprocess
    import sys

    from repro.serve.client import ServeClient

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]), REPRO_JOBS="2")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "run", "--port", "0",
         "--store", str(tmp_path / "store"), "--quiet"],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on "), line
        client = ServeClient(line.split()[2], tenant="idle")
        job = client.submit("demo", {"points": 2, "delay": 0.0})
        assert client.wait(job["id"], timeout=60)["state"] == "done"
        assert client.workers()["live"] >= 1  # warm workers stay behind
        before = _cpu_seconds(proc.pid)
        time.sleep(5.0)
        assert _cpu_seconds(proc.pid) - before < 0.5
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
