"""WorkerPool with a port: the warm-pool contract over real TCP connections.

Workers here are real subprocesses (``spawn_local_workers``) or raw
sockets driven by the test (for protocol-level cases like split-brain
and heartbeat silence).  Timings use short heartbeats so failure paths
resolve in tenths of seconds.
"""

import socket
import sys
import textwrap
import time

import pytest

from repro.sched import pool as pool_module
from repro.sched.campaigns import demo_campaign, demo_task
from repro.sched.campaign import run_campaign
from repro.sched.net import spawn_local_workers
from repro.sched.net.frames import recv_frame, send_frame
from repro.sched.pool import WorkerPool
from repro.sched.store import ResultStore


# Module-level so they pickle across the socket.

def add(a, b):
    return {"sum": a + b}


def boom(message="broken"):
    raise ValueError(message)


def snooze(seconds=30.0):
    time.sleep(seconds)
    return {"slept": seconds}


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


def drain(pool, want, timeout=10.0):
    """Collect events until ``want`` keys resolved; returns {key: event}."""
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


class TestRoundTrip:
    def test_tasks_complete_across_real_workers(self):
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 2, name_prefix="rt")
            try:
                wait_for_workers(pool, 2)
                for i in range(6):
                    pool.submit(f"t{i}", add, {"a": i, "b": 10})
                done = drain(pool, 6)
                assert all(e.status == "ok" for e in done.values())
                assert done["t3"].payload == {"sum": 13}
                assert pool.stats["tasks_completed"] == 6
                assert pool.in_flight == 0
            finally:
                pool.shutdown()
                reap(procs)
        assert [p.returncode for p in procs] == [0, 0]

    def test_error_task_reports_error_event(self):
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 1, name_prefix="err")
            try:
                wait_for_workers(pool, 1)
                pool.submit("bad", boom, {"message": "no"})
                event = drain(pool, 1)["bad"]
                assert event.status == "error"
                assert "ValueError: no" in event.payload
            finally:
                pool.shutdown()
                reap(procs)

    def test_cancel_pending_drops_only_queued(self):
        with make_pool() as pool:
            pool.submit("q1", add, {"a": 1, "b": 1})
            pool.submit("q2", add, {"a": 2, "b": 2})
            assert sorted(pool.cancel_pending()) == ["q1", "q2"]
            assert pool.in_flight == 0


class TestFailurePaths:
    def test_sigkilled_worker_requeues_task_to_survivor(self):
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 2, name_prefix="kill")
            try:
                wait_for_workers(pool, 2)
                for i in range(4):
                    pool.submit(f"t{i}", demo_task, {"n": 16, "delay": 0.4})
                pool.events(wait=0.2)  # both workers now mid-task
                procs[0].kill()
                done = drain(pool, 4, timeout=20.0)
                assert all(e.status == "ok" for e in done.values())
                assert pool.stats["workers_lost"] == 1
                assert pool.stats["requeues"] >= 1
                states = {r["name"]: r["state"] for r in pool.fleet()}
                assert states["kill-0"] == "lost"
                assert states["kill-1"] == "live"
            finally:
                pool.shutdown()
                reap(procs)

    def test_delivery_budget_exhaustion_surfaces_crash(self, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_DELIVERIES", 1)
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 1, name_prefix="bud")
            try:
                wait_for_workers(pool, 1)
                pool.submit("doomed", snooze, {"seconds": 30.0})
                pool.events(wait=0.2)  # dispatched: delivery 1 of 1
                procs[0].kill()
                event = drain(pool, 1, timeout=10.0)["doomed"]
                assert event.status == "crash"
                assert "deliveries exhausted" in event.payload
                assert pool.stats["crashes"] == 1
                assert pool.stats["requeues"] == 0
            finally:
                pool.shutdown()
                reap(procs)

    def test_task_timeout_is_not_requeued(self):
        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 1, name_prefix="slow")
            try:
                wait_for_workers(pool, 1)
                pool.submit("hung", snooze, {"seconds": 30.0}, timeout=0.3)
                event = drain(pool, 1, timeout=10.0)["hung"]
                assert event.status == "timeout"
                assert pool.stats["timeouts"] == 1
                assert pool.stats["requeues"] == 0
                assert pool.queued_count == 0  # a hung task is not retried
            finally:
                pool.shutdown()
                reap(procs)

    def test_task_the_worker_cannot_load_is_an_error(self, tmp_path, monkeypatch):
        # A function from a module on the scheduler's path but not the
        # worker's: the worker reports the import failure as the task's
        # error, keeps its registration, and nothing is redelivered.
        (tmp_path / "sched_only_mod.py").write_text(textwrap.dedent("""
            def task():
                return {"ran": True}
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        import sched_only_mod

        with make_pool() as pool:
            procs = spawn_local_workers(pool.address, 1, name_prefix="load")
            try:
                wait_for_workers(pool, 1)
                pool.submit("foreign", sched_only_mod.task)
                pool.submit("native", add, {"a": 1, "b": 1})
                done = drain(pool, 2)
                assert done["foreign"].status == "error"
                assert done["foreign"].payload == (
                    "ModuleNotFoundError: No module named 'sched_only_mod'"
                )
                assert done["native"].payload == {"sum": 2}
                assert pool.stats["requeues"] == 0
                assert pool.stats["workers_lost"] == 0
                assert [r["generation"] for r in pool.fleet()] == [1]
            finally:
                pool.shutdown()
                reap(procs)
                sys.modules.pop("sched_only_mod", None)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0, port=0)
        with pytest.raises(ValueError):
            WorkerPool(port=0, heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with make_pool() as pool:
            with pytest.raises(ValueError):
                pool.submit("k", add, {"a": 1, "b": 2}, timeout=-1)
        with pytest.raises(RuntimeError):
            pool.submit("k", add, {"a": 1, "b": 2})  # after shutdown


class TestProtocolLevel:
    """Cases driven by a raw socket standing in for a worker."""

    @staticmethod
    def recv_skipping_pings(sock):
        while True:
            frame = recv_frame(sock)
            if frame[0] != "ping":
                return frame

    def register(self, pool, name):
        sock = socket.create_connection(pool.address, timeout=5.0)
        sock.settimeout(5.0)
        send_frame(sock, ("hello", name, {"pid": 0, "host": "test"}))
        pool.events(wait=0.1)
        welcome = recv_frame(sock)
        assert welcome[0] == "welcome"
        return sock

    def test_split_brain_second_hello_evicts_first(self):
        with make_pool() as pool:
            first = self.register(pool, "twin")
            second = self.register(pool, "twin")
            try:
                # The first connection is told it lost the name (pings
                # sent before the eviction may precede the evict frame).
                assert self.recv_skipping_pings(first)[0] == "evict"
                assert pool.registry.by_name("twin").generation == 2
                assert pool.stats["workers_reconnected"] == 1
                # The winner still serves: a ping arrives eventually.
                deadline = time.monotonic() + 3.0
                while time.monotonic() < deadline:
                    pool.events(wait=0.1)
                    second.setblocking(False)
                    try:
                        frame = recv_frame(second)
                        assert frame[0] == "ping"
                        break
                    except Exception:
                        second.setblocking(True)
                        continue
                else:
                    raise AssertionError("winner never pinged")
            finally:
                first.close()
                second.close()

    def test_evicted_workers_inflight_task_requeues(self, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_DELIVERIES", 1)
        with make_pool() as pool:
            first = self.register(pool, "twin")
            pool.submit("p", add, {"a": 1, "b": 2})
            pool.events(wait=0.1)  # dispatch to `first`; it never replies
            assert self.recv_skipping_pings(first)[0] == "task"
            # Second hello sent raw: the pool processes it inside the
            # drain below, so the salvage event is not swallowed here.
            second = socket.create_connection(pool.address, timeout=5.0)
            send_frame(second, ("hello", "twin", {}))
            try:
                # MAX_DELIVERIES=1: the requeue path surfaces as a crash,
                # proving the eviction salvaged the in-flight task.
                done = drain(pool, 1, timeout=5.0)
                assert done["p"].status == "crash"
            finally:
                first.close()
                second.close()

    def test_silent_worker_declared_lost_after_heartbeat_timeout(self):
        with make_pool() as pool:
            sock = self.register(pool, "mute")
            try:
                deadline = time.monotonic() + 5.0
                while pool.registry.live() and time.monotonic() < deadline:
                    pool.events(wait=0.1)
                assert pool.registry.live() == []
                assert pool.stats["workers_lost"] == 1
                assert pool.fleet()[0]["state"] == "lost"
            finally:
                sock.close()

    def test_stale_result_after_timeout_is_dropped(self):
        with make_pool() as pool:
            sock = self.register(pool, "late")
            pool.submit("slow", add, {"a": 1, "b": 2}, timeout=0.2)
            pool.events(wait=0.1)
            assert self.recv_skipping_pings(sock)[0] == "task"
            event = drain(pool, 1, timeout=5.0)["slow"]
            assert event.status == "timeout"
            # The written-off worker answers anyway; nothing surfaces.
            try:
                send_frame(sock, ("ok", "slow", {"sum": 3}, 1.0))
            except OSError:
                pass  # pool already closed the connection — equally fine
            assert pool.events(wait=0.3) == []
            sock.close()


class TestCampaignIntegration:
    def test_run_campaign_is_pool_agnostic(self, tmp_path):
        campaign = demo_campaign(points=6, delay=0.02)
        store = ResultStore(tmp_path / "store")
        with make_pool(jobs=3) as pool:
            procs = spawn_local_workers(pool.address, 3, name_prefix="camp")
            try:
                wait_for_workers(pool, 3)
                report = run_campaign(campaign, store, pool=pool)
                assert report.ok
                assert set(report.counts) == {"done"}
            finally:
                pool.shutdown()
                reap(procs)
