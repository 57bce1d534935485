"""The warm worker pool on forked local workers: reuse, recycling, crash
isolation, watchdog — plus the results no worker loop may die of, on
both local and remote workers."""

import os
import time

import pytest

from repro.sched import pool as pool_module
from repro.sched.net.worker import spawn_local_workers
from repro.sched.pool import MAX_TASKS_PER_WORKER, PoolEvent, WorkerPool


# Task functions must be module-level so they pickle across to the workers.

def add(a, b):
    return {"sum": a + b}


def worker_pid():
    return {"pid": os.getpid()}


def boom(message="broken"):
    raise ValueError(message)


def hard_crash(code=3):
    os._exit(code)


def hang(seconds=60.0):
    time.sleep(seconds)
    return {"done": True}


def socket_fd_count():
    """Count socket fds open in the worker (its task pipe included)."""
    import stat

    count = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                count += 1
        except OSError:
            continue
    return {"sockets": count}


def drain(pool, expected, wait=0.5, budget=30.0):
    """Collect events until ``expected`` keys completed (or time out)."""
    events = {}
    deadline = time.monotonic() + budget
    while len(events) < expected:
        assert time.monotonic() < deadline, f"only {len(events)}/{expected} events"
        for event in pool.events(wait=wait):
            events[event.key] = event
    return events


class TestBasics:
    def test_submit_and_collect(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit("a", add, {"a": 2, "b": 3})
            events = drain(pool, 1)
        assert events["a"].ok
        assert events["a"].payload == {"sum": 5}
        assert events["a"].wall_time >= 0.0

    def test_task_exception_is_an_error_event_not_a_crash(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit("bad", boom, {"message": "nope"})
            pool.submit("good", add, {"a": 1, "b": 1})
            events = drain(pool, 2)
        assert events["bad"].status == "error"
        assert "ValueError: nope" in events["bad"].payload
        assert events["good"].ok
        assert pool.stats["crashes"] == 0

    def test_workers_spawn_lazily(self):
        pool = WorkerPool(jobs=4)
        try:
            assert pool.stats["workers_spawned"] == 0
            pool.submit("a", add, {"a": 0, "b": 0})
            assert pool.stats["workers_spawned"] == 1
        finally:
            pool.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(jobs=0)
        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ValueError, match="timeout"):
                pool.submit("a", add, {"a": 1, "b": 1}, timeout=0)

    def test_default_recycle_budget_is_high(self):
        # The warm pool only pays off if workers live long enough to
        # amortise their import; guard against the constant regressing.
        assert MAX_TASKS_PER_WORKER >= 64


    def test_idle_worker_leaves_quietly_on_sigint(self, capfd):
        # Ctrl-C on a campaign reaches every forked worker of the process
        # group; the scheduler reports the interrupt, the workers must not.
        import signal

        with WorkerPool(jobs=1) as pool:
            pool.submit("a", add, {"a": 1, "b": 1})
            assert drain(pool, 1)["a"].ok  # the worker is up and idle
            proc = pool._local[0].proc
            os.kill(proc.pid, signal.SIGINT)
            proc.join(timeout=10)
            assert proc.exitcode == 0
        err = capfd.readouterr().err
        assert "Traceback" not in err and "KeyboardInterrupt" not in err


class TestWarmReuse:
    def test_one_worker_serves_many_tasks(self):
        with WorkerPool(jobs=1) as pool:
            for i in range(6):
                pool.submit(f"t{i}", worker_pid)
            events = drain(pool, 6)
        pids = {e.payload["pid"] for e in events.values()}
        assert len(pids) == 1  # the same warm process served everything
        assert pool.stats["workers_spawned"] == 1
        assert pool.stats["tasks_completed"] == 6

    def test_recycling_retires_worker_after_budget(self, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_TASKS_PER_WORKER", 2)
        with WorkerPool(jobs=1) as pool:
            for i in range(4):
                pool.submit(f"t{i}", worker_pid)
            events = drain(pool, 4)
        pids = {e.payload["pid"] for e in events.values()}
        assert len(pids) == 2  # retired after 2 tasks, replacement finished
        assert pool.stats["recycled"] >= 1
        assert pool.stats["workers_spawned"] == 2


class TestFailureIsolation:
    def test_crash_fails_only_its_task(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit("dead", hard_crash, {"code": 3})
            pool.submit("alive", add, {"a": 4, "b": 5})
            events = drain(pool, 2)
        assert events["dead"].status == "crash"
        assert "worker crashed (exit code 3)" in events["dead"].payload
        assert events["alive"].ok and events["alive"].payload == {"sum": 9}
        assert pool.stats["crashes"] == 1

    def test_timeout_kills_hung_worker(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit("hung", hang, {"seconds": 60.0}, timeout=0.3)
            pool.submit("next", add, {"a": 1, "b": 2})
            t0 = time.monotonic()
            events = drain(pool, 2)
            elapsed = time.monotonic() - t0
        assert events["hung"].status == "timeout"
        assert "timed out after 0.3s" in events["hung"].payload
        assert events["next"].ok
        assert elapsed < 30.0  # the watchdog did not wait for the sleep
        assert pool.stats["timeouts"] == 1

    def test_unpicklable_result_degrades_to_error(self):
        # The one worker loop reports a result it cannot pickle as the
        # task's error, on a forked worker and on a `python -m repro
        # worker` alike — and the worker lives on to serve the next task.
        for port in (None, 0):
            with WorkerPool(jobs=1, port=port) as pool:
                procs = []
                if port is not None:
                    procs = spawn_local_workers(pool.address, 1, name_prefix="gen")
                    deadline = time.monotonic() + 15.0
                    while not pool.registry.live():
                        assert time.monotonic() < deadline, "worker never registered"
                        pool.events(wait=0.05)
                try:
                    pool.submit("gen", unpicklable_result)
                    pool.submit("next", add, {"a": 1, "b": 2})
                    events = drain(pool, 2)
                finally:
                    pool.shutdown()
                    for proc in procs:
                        assert proc.wait(timeout=10) == 0  # stopped, not crashed
            assert events["gen"].status == "error", port
            assert "result not sendable" in events["gen"].payload
            assert events["next"].ok and events["next"].payload == {"sum": 3}
            assert pool.stats["crashes"] == 0
            assert pool.stats["workers_lost"] == 0
            assert pool.stats["requeues"] == 0

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc (Linux)"
    )
    def test_forked_worker_drops_inherited_sockets(self):
        # A worker forked while the parent holds open sockets must not
        # keep copies: an inherited fd holds a connection half-alive
        # after the real owner closes it (the peer's writes keep
        # succeeding, so disconnects go undetected), and a killed
        # server's listen port stays bound by its own workers.  The one
        # socket a worker may hold is its own task pipe (a socketpair).
        import socket as socketlib

        parked = socketlib.socketpair()
        try:
            with WorkerPool(jobs=1) as pool:
                pool.submit("fds", socket_fd_count)
                events = drain(pool, 1)
        finally:
            for end in parked:
                end.close()
        assert events["fds"].ok
        assert events["fds"].payload == {"sockets": 1}

    def test_worker_link_above_fd_setsize(self):
        # select.select() rejects an fd >= FD_SETSIZE (1024).  A service
        # holding many connections forks its workers with their link (and
        # wake pipe) above that; they must still serve.
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        want = 1200
        if hard != resource.RLIM_INFINITY and hard < want:
            pytest.skip(f"hard fd limit {hard} is below {want}")
        resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, want), hard))
        r, w = os.pipe()
        filler = []
        try:
            while max(filler + [w]) < 1050:
                filler.append(os.dup(r))
            with WorkerPool(jobs=1) as pool:
                pool.submit("high", add, {"a": 2, "b": 3})
                events = drain(pool, 1)
        finally:
            for fd in filler + [r, w]:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert events["high"].ok and events["high"].payload == {"sum": 5}


def unpicklable_result():
    return {"gen": (i for i in range(3))}  # generators never pickle


class TestLifecycle:
    def test_cancel_pending_drops_queue(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit("slow", hang, {"seconds": 5.0}, timeout=30.0)
            pool.submit("q1", add, {"a": 1, "b": 1})
            pool.submit("q2", add, {"a": 2, "b": 2})
            dropped = pool.cancel_pending()
            assert dropped == ["q1", "q2"]
            assert pool.queued_count == 0
            assert pool.active_count == 1

    def test_shutdown_is_idempotent_and_final(self):
        pool = WorkerPool(jobs=1)
        pool.submit("a", add, {"a": 1, "b": 1})
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit("b", add, {"a": 1, "b": 1})

    def test_shutdown_kills_in_flight_work(self):
        pool = WorkerPool(jobs=1)
        pool.submit("hung", hang, {"seconds": 60.0})
        time.sleep(0.2)  # let the worker pick the task up
        t0 = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - t0 < 10.0

    def test_events_on_idle_pool_returns_nothing(self):
        with WorkerPool(jobs=1) as pool:
            assert pool.events(wait=0.01) == []
            assert pool.in_flight == 0


class TestPoolEvent:
    def test_ok_property(self):
        assert PoolEvent("k", "ok", {}, 1, 0.0).ok
        for status in ("error", "crash", "timeout"):
            assert not PoolEvent("k", status, "boom", 1, 0.0).ok
