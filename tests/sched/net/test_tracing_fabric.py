"""Trace-context propagation across the TCP fabric.

The distributed half of the tracing contract: a ``trace`` dict handed
to ``WorkerPool.submit`` on a pool with a port must ride the task frame
to a real worker subprocess, come home as an ``exec`` span on the result
frame, and — because the context lives on the queued ``_Task`` — survive
a requeue so the redelivered execution still belongs to the same trace.
"""

import time

import pytest

from repro.obs import tracing
from repro.sched.campaigns import demo_task
from repro.sched.net import spawn_local_workers
from repro.sched.pool import WorkerPool


def make_pool(**kwargs):
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("heartbeat_timeout", 0.6)
    return WorkerPool(jobs=kwargs.pop("jobs", 2), port=0, **kwargs)


def wait_for_workers(pool, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while len(pool.registry.live()) < count:
        pool.events(wait=0.05)
        if time.monotonic() > deadline:
            raise AssertionError(
                f"only {len(pool.registry.live())}/{count} workers registered"
            )


def drain(pool, want, timeout=20.0):
    done = {}
    deadline = time.monotonic() + timeout
    while len(done) < want:
        for event in pool.events(wait=0.2):
            done[event.key] = event
        if time.monotonic() > deadline:
            raise AssertionError(f"only {sorted(done)} resolved in {timeout}s")
    return done


def reap(procs, timeout=5.0):
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except Exception:
            proc.kill()
            proc.wait()


@pytest.fixture
def traced(monkeypatch):
    """Tracing on in this process AND in spawned worker subprocesses."""
    monkeypatch.setenv(tracing.TRACE_ENV, "1")
    monkeypatch.delenv(tracing.TRACE_PATH_ENV, raising=False)
    tracing.TRACER.reset()
    tracing.TRACER.configure(enabled=True)
    yield tracing.TRACER
    tracing.TRACER.configure(enabled=False)
    tracing.TRACER.reset()


def exec_spans(tracer, trace_id):
    return [
        s for s in tracer.finished
        if s.kind == "exec" and s.trace_id == trace_id
    ]


class TestFabricPropagation:
    def test_exec_span_comes_home_with_submitted_context(self, traced):
        root = traced.start_span("job:test", kind="job")
        task = traced.start_span("t0", kind="task", parent=root)
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 1, name_prefix="tr")
            try:
                wait_for_workers(pool, 1)
                pool.submit(
                    "t0", demo_task, {"n": 16, "delay": 0.05},
                    trace=task.context.to_dict(),
                )
                done = drain(pool, 1)
                assert done["t0"].status == "ok"
            finally:
                pool.shutdown()
                reap(procs)
        spans = exec_spans(traced, root.trace_id)
        assert len(spans) == 1, "worker exec span never shipped home"
        assert spans[0].parent_span_id == task.span_id
        assert spans[0].attrs.get("transport") == "tcp"
        # The span was recorded by another process on another "host".
        assert spans[0].host != traced.host

    def test_trace_id_survives_requeue_after_worker_loss(self, traced):
        """Kill the worker mid-task: the redelivered execution must still
        carry the original trace context (it lives on the queued task)."""
        root = traced.start_span("job:requeue", kind="job")
        contexts = {}
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 2, name_prefix="trkill")
            try:
                wait_for_workers(pool, 2)
                for i in range(4):
                    key = f"t{i}"
                    span = traced.start_span(key, kind="task", parent=root)
                    contexts[key] = span
                    pool.submit(
                        key, demo_task, {"n": 16, "delay": 0.4},
                        trace=span.context.to_dict(),
                    )
                pool.events(wait=0.2)  # both workers now mid-task
                procs[0].kill()
                done = drain(pool, 4)
                assert all(e.status == "ok" for e in done.values())
                assert pool.stats["requeues"] >= 1
            finally:
                pool.shutdown()
                reap(procs)
        spans = exec_spans(traced, root.trace_id)
        # Every task's surviving execution reported exactly the context
        # submitted for it — one trace_id across kill, requeue, redelivery.
        by_key = {s.attrs.get("key"): s for s in spans}
        assert sorted(by_key) == ["t0", "t1", "t2", "t3"]
        for key, span in by_key.items():
            assert span.trace_id == root.trace_id
            assert span.parent_span_id == contexts[key].span_id, key
        assert len({s.trace_id for s in spans}) == 1