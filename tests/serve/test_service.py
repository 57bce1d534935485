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
    """Return a small outcome; optionally count executions via marker files.

    Each execution appends one byte, so executions on concurrent workers
    never lose a count.
    """
    if delay:
        time.sleep(delay)
    if marker_dir is not None:
        with open(os.path.join(marker_dir, f"{name}.count"), "a") as fh:
            fh.write("x")
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
def metrics_on():
    was_enabled = _metrics.REGISTRY.enabled
    _metrics.REGISTRY.enable()
    yield
    if not was_enabled:
        _metrics.REGISTRY.disable()


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


def test_jobs_within_tenant_run_oldest_first(mux, monkeypatch):
    """Within a tenant, every task of the older job is dispatched before
    any task of the newer one (finish order is up to the workers)."""
    dispatched = []
    real_submit = mux.pool.submit

    def recording_submit(key, *args, **kwargs):
        dispatched.append(key)
        return real_submit(key, *args, **kwargs)

    monkeypatch.setattr(mux.pool, "submit", recording_submit)
    first = mux.submit("alice", fanout("alice", 3))
    second = mux.submit("alice", shared(3))
    drive(mux)
    assert first.state == "done" and second.state == "done"
    owners = [key.split("/", 1)[0] for key in dispatched]
    assert owners == [first.id] * 3 + [second.id] * 3, dispatched


# -- quotas ------------------------------------------------------------------

def test_task_spans_carry_bare_names_and_the_job(store, tmp_path):
    """A task span is named after its task; the job id is an attribute."""
    from repro.obs import tracing

    sink = str(tmp_path / "spans.jsonl")
    tracing.TRACER.reset()
    tracing.TRACER.configure(enabled=True, path=sink)
    mux = FairShareMultiplexer(store, jobs=1)
    try:
        job = mux.submit("alice", Campaign("c", (
            TaskSpec("a", emit, kwargs={"value": 1}),
            TaskSpec("b", emit, kwargs={"value": 2}),
        )))
        drive(mux)
    finally:
        mux.shutdown()
        tracing.TRACER.configure(enabled=False)
        tracing.TRACER.reset()
    tasks = [s for s in tracing.read_trace_file(sink) if s["kind"] == "task"]
    assert sorted(s["name"] for s in tasks) == ["a", "b"]
    assert all(s["attrs"]["job"] == job.id for s in tasks)


def test_stepped_multiplexer_feeds_the_live_status_line(store, metrics_on):
    """The campaign gauges ``campaign status --follow`` reads come from
    the multiplexer: a live job shows its total and its in-flight work."""
    import re

    from repro.obs.snapshot import MetricsSnapshot, live_status_line

    mux = FairShareMultiplexer(store, jobs=1)
    try:
        mux.submit("alice", fanout("alice", 4, delay=0.5))
        mux.step(wait=0.05)  # activate and dispatch
        live = live_status_line(MetricsSnapshot.capture())
    finally:
        mux.shutdown()
    after = live_status_line(MetricsSnapshot.capture())
    assert re.search(r"\b\d+/4 done", live), live
    assert re.search(r"in-flight [1-9]", live), live
    assert "frontier 0  in-flight 0" in after, after


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
    assert open(os.path.join(marker, "p.count")).read() == "xxx"


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


# -- the live-job index: work follows live jobs, not history -----------------

class CountingJobs(dict):
    """A job table that counts the records its ``values()`` walks yield."""

    def __init__(self, jobs):
        super().__init__(jobs)
        self.reads = 0

    def values(self):
        for job in super().values():
            self.reads += 1
            yield job


def stored_table1(store):
    """The stock table1 campaign with every stored task already in ``store``."""
    from repro.serve.registry import default_registry

    campaign = default_registry()["table1"].build({})
    for task in campaign.tasks:
        if not task.inline:
            store.put(store.key_for(task.fn, task.kwargs), {"correct": True},
                      spec=task.spec_dict())
    return campaign


def assert_live_index(mux):
    """The index holds exactly the jobs not yet finished, in admission order."""
    assert list(mux._live) == [j.id for j in mux.jobs() if not j.finished]


def test_a_cached_job_reads_as_many_job_records_whatever_the_history(
    tmp_path, metrics_on
):
    """Submitting and stepping a cached table1 job walks the live jobs
    only: 10 or 2,000 finished jobs behind it read the same records."""
    reads = {}
    for history in (10, 2000):
        store = ResultStore(str(tmp_path / f"store-{history}"))
        table1 = stored_table1(store)
        tiny = Campaign("tiny", (TaskSpec("a", emit, kwargs={"value": 1}),))
        store.put(store.key_for(emit, {"value": 1}), {"value": 1, "correct": True})
        mux = FairShareMultiplexer(store, jobs=1)
        try:
            for i in range(history):
                job = mux.submit(f"t{i % 4}", tiny)
                while not job.terminal:
                    mux.step(wait=0)
            assert len(mux.jobs()) == history
            mux._jobs, mux._live = CountingJobs(mux._jobs), CountingJobs(mux._live)
            job = mux.submit("t0", table1)
            while not job.terminal:
                mux.step(wait=0)
            assert job.counts() == {"cached": 81, "done": 4}
            reads[history] = mux._jobs.reads + mux._live.reads
        finally:
            mux.shutdown()
    assert reads[10] == reads[2000], reads


def test_the_live_index_holds_exactly_the_unfinished_jobs(mux, monkeypatch):
    """Across admission, dispatch, cached finishes, cancel, drain and
    release, the index never holds a finished job nor misses a live one."""
    monkeypatch.setattr(tenancy, "DETAILED_JOBS", 1)
    jobs = [
        mux.submit("alice", fanout("alice", 3, delay=0.05)),
        mux.submit("bob", shared(2)),
        mux.submit("carol", fanout("carol", 4, delay=0.2)),
    ]
    assert_live_index(mux)
    queued = mux.submit("alice", fanout("alice", 2, name="late"))
    mux.cancel(queued.id)  # queued: finishes at once
    assert_live_index(mux)
    deadline = time.monotonic() + 20
    while not jobs[2].execution.in_flight and time.monotonic() < deadline:
        mux.step(wait=0.05)
        assert_live_index(mux)
    mux.cancel(jobs[2].id)  # running: drains in later steps
    assert jobs[2].id in mux._live
    jobs.append(mux.submit("dave", shared(2)))  # bob's keys: cached or parked
    while mux._live and time.monotonic() < deadline:
        mux.step(wait=0.05)
        assert_live_index(mux)
    assert not mux._live
    assert [j.state for j in jobs] == ["done", "done", "cancelled", "done"]
    released = [j for j in mux.jobs() if j.execution is None]
    assert len(released) == len(mux.jobs()) - 1  # all but the last finished


def test_shutdown_finishes_every_live_job_a_draining_one_too(mux):
    """Shutdown ends queued, running and still-draining jobs alike, so the
    index is empty and every job's spans are frozen."""
    draining = mux.submit("alice", fanout("alice", 2, delay=0.5))
    deadline = time.monotonic() + 20
    while not draining.execution.in_flight and time.monotonic() < deadline:
        mux.step(wait=0.05)
    mux.cancel(draining.id)
    running = mux.submit("bob", fanout("bob", 2, delay=0.5))
    mux.step(wait=0)
    queued = mux.submit("carol", fanout("carol", 2))
    assert len(mux._live) == 3
    mux.shutdown()
    assert not mux._live
    for job in (draining, running, queued):
        assert job.state == "cancelled"
        assert job.finished and len(job.spans) == 2
    assert queued.counts() == {"pending": 2}


def test_memoized_campaign_runs_leave_its_specs_as_built(mux):
    """Two runs of one shared registry campaign write nothing into it:
    every task's kwargs still equal a fresh build's, and the key map is
    read-only."""
    from repro.serve.registry import default_registry

    entry = default_registry()["demo"]
    campaign = entry.build({"points": 3, "delay": 0})
    first = mux.submit("alice", campaign)
    drive(mux)
    second = mux.submit("bob", entry.build({"points": 3, "delay": 0.0}))
    drive(mux)
    assert second.campaign is campaign
    assert first.counts() == {"done": 4}
    assert second.counts() == {"cached": 3, "done": 1}
    assert second.execution.keys is first.execution.keys
    with pytest.raises(TypeError):
        first.execution.keys["demo/point-00"] = "0" * 64
    fresh = default_registry()["demo"].build({"points": 3, "delay": 0})
    assert fresh is not campaign
    assert [t.kwargs for t in campaign.tasks] == [t.kwargs for t in fresh.tasks]
    assert campaign.keys_for(mux.store) == fresh.keys_for(mux.store)


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
    job, _ = service.submit("alice", demo_request())
    assert wait_for(lambda: service.job(job.id).terminal)
    assert service.job(job.id).state == "done"


def test_service_progress_lines_carry_the_job_id(tmp_path):
    lines = []
    svc = CampaignService(
        str(tmp_path / "store"), jobs=1, snapshot_interval=10.0,
        progress=lines.append,
    )
    svc.start()
    try:
        job, _ = svc.submit("alice", demo_request(points=2))
        assert wait_for(lambda: svc.job(job.id).terminal)
    finally:
        svc.stop()
    assert job.id == "job-0001"
    assert lines and all(line.startswith("job-0001: ") for line in lines), lines


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
    job, _ = service.submit("alice", demo_request(points=6, delay=0.2))
    with pytest.raises(ContractError) as excinfo:
        service.cancel(job.id, "bob")
    assert excinfo.value.code == "wrong_tenant"
    assert excinfo.value.status == 403
    service.cancel(job.id, "alice")
    assert wait_for(lambda: service.job(job.id).terminal)
    assert service.job(job.id).state == "cancelled"


def test_disconnect_cancel_then_resubmit_resumes(service):
    """The ISSUE semantics: cancel mid-run, resubmit, resume from the store."""
    job, _ = service.submit("alice", demo_request(points=6, delay=0.2))
    # Wait until some work has completed, as a disconnecting watcher would.
    assert wait_for(
        lambda: service.job(job.id).counts().get("done", 0) >= 1
    )
    service.cancel(job.id, "alice")  # what the SSE handler does on disconnect
    assert wait_for(lambda: service.job(job.id).terminal)
    cancelled = service.job(job.id)
    assert cancelled.state == "cancelled"
    assert cancelled.counts().get("pending", 0) > 0
    resubmitted, _ = service.submit("alice", demo_request(points=6, delay=0.2))
    assert wait_for(lambda: service.job(resubmitted.id).terminal)
    final = service.job(resubmitted.id)
    assert final.state == "done"
    assert final.counts().get("cached", 0) >= 1


def test_subscription_streams_job_events(service):
    sub = service.subscribe()
    try:
        job, _ = service.submit("alice", demo_request())
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
    job, _ = service.submit("alice", demo_request())
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
        job, _ = svc.submit("alice", demo_request(points=1))
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
        job, _ = svc.submit("alice", demo_request(points=2))  # queued: no scheduler
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


def _job_events(sub, job_id, until, timeout=10.0):
    """States of ``job_id``'s ``job`` events on ``sub`` up to ``until``."""
    import json as _json

    states = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        item = sub.get(timeout=0.05)
        if item is None or item[0] != "job":
            continue
        view = _json.loads(item[1])["job"]
        if view["id"] == job_id:
            states.append(view["state"])
            if view["state"] == until:
                break
    return states


def test_a_job_finished_at_activation_is_broadcast_at_once(tmp_path, monkeypatch):
    """A fully cached job goes terminal in the step that activates it; its
    terminal event must not wait out the scheduler's poll of the pool."""
    from repro.serve import service as service_module

    monkeypatch.setattr(service_module, "POLL_WAIT", 5.0)
    svc = CampaignService(str(tmp_path / "store"), jobs=1, snapshot_interval=10.0)
    svc.start()
    try:
        first, _ = svc.submit("alice", demo_request(points=2))
        assert wait_for(lambda: svc.job(first.id).terminal)
        time.sleep(0.2)  # let the scheduler settle into its 5 s wait
        sub = svc.subscribe()
        t0 = time.monotonic()
        job, _ = svc.submit("bob", demo_request(points=2))
        states = _job_events(sub, job.id, until="done")
        elapsed = time.monotonic() - t0
        svc.unsubscribe(sub)
        assert states[-1] == "done", states
        assert elapsed < 1.0, f"terminal event after {elapsed:.2f} s"
        assert svc.job(job.id).counts() == {"cached": 2, "done": 1}
    finally:
        svc.stop()


def test_no_snapshot_is_captured_without_a_listener(tmp_path, monkeypatch):
    from repro.serve import service as service_module

    captured = []
    real_capture = service_module.MetricsSnapshot.capture
    monkeypatch.setattr(
        service_module.MetricsSnapshot, "capture",
        lambda **kw: captured.append(kw) or real_capture(**kw),
    )
    svc = CampaignService(str(tmp_path / "store"), jobs=1, snapshot_interval=0.05)
    svc.start()
    try:
        job, _ = svc.submit("alice", demo_request(points=2))
        assert wait_for(lambda: svc.job(job.id).terminal)
        time.sleep(0.3)  # several snapshot intervals with nobody listening
    finally:
        svc.stop()
    assert captured == []


def test_a_global_subscriber_gets_snapshots_with_contiguous_seq(tmp_path):
    import json as _json

    svc = CampaignService(str(tmp_path / "store"), jobs=1, snapshot_interval=0.05)
    sub = svc.subscribe()
    svc.start()
    try:
        job, _ = svc.submit("alice", demo_request(points=2))
        assert wait_for(lambda: svc.job(job.id).terminal)
        time.sleep(0.3)
    finally:
        svc.stop()
    seqs = []
    while True:
        item = sub.get(timeout=0.0)
        if item is None:
            break
        if item[0] == "snapshot":
            seqs.append(_json.loads(item[1])["seq"])
    assert len(seqs) >= 3
    assert seqs == list(range(len(seqs)))


def test_the_metrics_file_gets_every_snapshot_without_a_subscriber(tmp_path):
    from repro.obs.snapshot import read_snapshots

    path = str(tmp_path / "metrics.jsonl")
    svc = CampaignService(
        str(tmp_path / "store"), jobs=1, snapshot_interval=0.05, metrics_path=path
    )
    svc.start()
    try:
        job, _ = svc.submit("alice", demo_request(points=2))
        assert wait_for(lambda: svc.job(job.id).terminal)
        time.sleep(0.3)
    finally:
        svc.stop()
    snaps = list(read_snapshots(path))
    assert len(snaps) >= 3
    assert [s.seq for s in snaps] == list(range(len(snaps)))
    assert snaps[-1].final
    assert any(m["name"] == "repro_campaign_tasks_total" for m in snaps[-1].metrics)


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
