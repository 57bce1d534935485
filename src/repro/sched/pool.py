"""The warm worker pool: forked local workers or remote TCP workers.

A fresh process per task would pay an interpreter start plus a
``repro`` import for *every* grid point.  At campaign scale — thousands
of (model, problem, n, params, seed) points, multiplied again by the
chaos and adversary gates — that overhead dominates the points
themselves.  :class:`WorkerPool` keeps long-lived worker processes warm
instead: each imports :mod:`repro` once, then receives ``task`` frames
(:mod:`repro.sched.net.frames`) and answers with outcomes, so a task
costs one pickle round trip rather than one process launch.

Where the workers live is the pool's one switch:

* **No port** (the default) — the pool forks up to ``jobs`` local
  workers lazily with :mod:`multiprocessing`, each holding one end of a
  ``socket.socketpair()``.
* **A port** — the pool listens for ``python -m repro worker`` processes
  on other hosts (docs/DISTRIBUTED.md), which register by name and
  heartbeat; it forks none, and ``jobs`` only sizes callers'
  backpressure (``max_in_flight = 2 * pool.jobs``).

Both kinds run the one worker loop of :mod:`repro.sched.net.worker` and
speak the same frames; only the loss rule follows where a worker lives:

* **Local loss** — a forked worker whose socket reaches EOF has died
  (``os._exit``, segfault, OOM kill): a socketpair to a child cannot
  partition.  Its task is reported at once as a ``"crash"`` event with
  the exit code, and the next task gets a fresh worker.
* **Remote loss** (dead connection, or heartbeat silence beyond
  ``heartbeat_timeout``) — a lost link says nothing about the task, so
  the pool requeues it with exponential backoff, up to
  ``MAX_DELIVERIES`` deliveries; after that the caller sees a
  ``"crash"`` event.  A second ``hello`` with a live name evicts the
  older connection (latest wins) and requeues its task the same way.
* **Timeout** — a task overrunning its ``timeout`` is reported as
  ``"timeout"`` and not requeued (a hung task is a task property); its
  local worker is killed and reaped, its remote worker dropped.  A late
  or duplicated result no longer matching a worker's assignment is
  stale and dropped.
* **Recycling** — a local worker retires after ``MAX_TASKS_PER_WORKER``
  tasks, bounding how long interpreter state a task leaked can survive.

The pool is **polled, not threaded**: forking, accepting registrations,
heartbeats, reads, dispatch and watchdogs all happen inside
:meth:`WorkerPool.events` on the caller's scheduler loop, which blocks
in one ``select`` over every worker socket, the listener and a
self-pipe.  :meth:`WorkerPool.wake` (any thread) writes the self-pipe,
so a submission or a shutdown reaches a blocked scheduler at once.

Retries are deliberately *not* the pool's job: callers
(:func:`repro.analysis.parallel_sweep.parallel_sweep`, the campaign
runner) own attempt bookkeeping so bounded-retry policy lives in one
place per caller.  The pool neither reorders results (callers key
events by task) nor feeds scheduling information into tasks, so a
seeded task set produces bit-identical outcomes whether run serially or
on the pool — ``tests/property/test_sched_props.py`` pins this.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sched.net.frames import (
    FrameError,
    enable_nodelay,
    frame_type,
    recv_frame,
    send_frame,
)
from repro.sched.net.registry import WorkerInfo, WorkerRegistry
from repro.sched.net.worker import run_forked_worker

__all__ = [
    "WorkerPool",
    "PoolEvent",
    "MAX_TASKS_PER_WORKER",
    "MAX_DELIVERIES",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
]

#: Tasks a local worker runs before it is retired and replaced.  High
#: enough to amortise the fork away, low enough that leaked interpreter
#: state (an algorithm mutating a module global, an unclosed resource)
#: has a bounded lifetime.
MAX_TASKS_PER_WORKER = 256

#: Times one task may be handed to remote workers before a lost delivery
#: surfaces to the caller as a ``"crash"`` event.
MAX_DELIVERIES = 3

#: Requeue backoff: delivery ``k`` redispatches no sooner than
#: ``min(BACKOFF_BASE * 2**(k-1), BACKOFF_MAX)`` seconds after the loss.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 1.0

#: Seconds between heartbeat pings to each live remote worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Seconds of pong silence after which a remote worker is declared lost.
DEFAULT_HEARTBEAT_TIMEOUT = 2.5

_WAKE = "wake"
_LISTENER = "listener"


@dataclass(frozen=True)
class PoolEvent:
    """One completed (or failed) task, reported by :meth:`WorkerPool.events`.

    ``status`` is ``"ok"`` (``payload`` is the task's return value),
    ``"error"`` (the task raised, or its result would not pickle;
    ``payload`` is ``"Type: message"``), ``"crash"`` (the worker died
    mid-task, or a remote task ran out of deliveries; ``payload`` says
    which) or ``"timeout"`` (the watchdog fired; ``payload`` names the
    limit).  ``wall_time`` is the task's runtime in seconds as measured
    inside the worker (scheduler-side for crash/timeout).
    """

    key: str
    status: str
    payload: Any
    worker_id: int
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Task:
    __slots__ = ("key", "call", "timeout", "trace", "deliveries", "not_before")

    def __init__(self, key: str, call: bytes, timeout: Optional[float],
                 trace: Optional[Mapping[str, str]]) -> None:
        self.key = key
        #: ``pickle.dumps((fn, kwargs))``, unpickled by the worker's task
        #: thread — so a callable the worker cannot load is that task's
        #: error, not a broken link.
        self.call = call
        self.timeout = timeout
        #: Span context carried on every delivery of this task — requeues
        #: reuse the same object, so a task that survives a lost worker
        #: keeps its trace_id across redeliveries.
        self.trace = None if trace is None else dict(trace)
        self.deliveries = 0
        #: Monotonic time before which a requeued task must not redispatch.
        self.not_before = 0.0


class WorkerPool:
    """A pool of warm workers executing pickled task calls.

    Parameters
    ----------
    jobs:
        Local worker count (forked lazily — an idle pool holds no
        processes until the first task arrives); with a ``port``, the
        expected fleet size callers size backpressure by.  Defaults to
        :func:`repro.analysis.parallel_sweep.default_jobs`
        (``$REPRO_JOBS`` or the CPU count).
    port, host:
        Listen on ``(host, port)`` for remote workers instead of forking
        local ones (``port=0``: ephemeral; read the real one back from
        :attr:`address`).
    heartbeat_interval / heartbeat_timeout:
        Remote workers' ping cadence and the pong-silence bound past
        which one is lost.  Both are monotonic-clock arithmetic.

    Usage::

        with WorkerPool(jobs=4) as pool:
            pool.submit("a", fn, {"n": 4})
            pool.submit("b", fn, {"n": 8}, timeout=10.0)
            results = {}
            while len(results) < 2:
                for event in pool.events():
                    results[event.key] = event

    ``fn`` and each kwarg value must be picklable (module-level functions,
    :func:`functools.partial` of them, plain data).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        from repro.analysis.parallel_sweep import default_jobs

        if jobs is not None and int(jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval and timeout must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})"
            )
        self.jobs = default_jobs() if jobs is None else int(jobs)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        #: Remote workers by name (empty without a port).
        self.registry = WorkerRegistry()
        #: Forked local workers (empty with a port).
        self._local: List[WorkerInfo] = []
        self._next_local_id = 1
        self._queue: List[_Task] = []
        #: Events produced between events() calls or inside one.
        self._outbox: List[PoolEvent] = []
        self._closed = False
        self.stats: Dict[str, int] = {
            "tasks_completed": 0,
            "workers_spawned": 0,   # forks, or remote registrations
            "recycled": 0,
            "crashes": 0,
            "timeouts": 0,
            "workers_lost": 0,
            "workers_reconnected": 0,
            "requeues": 0,
            "stale_results": 0,
        }
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._listener: Optional[socket.socket] = None
        if port is not None:
            self._listener = socket.create_server((host, port), backlog=16)
            self._listener.setblocking(False)
            self._sel.register(self._listener, selectors.EVENT_READ, _LISTENER)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The listener's ``(host, port)`` — what remote workers dial.

        ``None`` for a pool of forked local workers.
        """
        if self._listener is None:
            return None
        return self._listener.getsockname()[:2]

    def wake(self) -> None:
        """Make a blocked :meth:`events` call return now; any thread."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a wake is already pending, or the pool is shut down

    def shutdown(self) -> None:
        """Stop every worker (killing any mid-task) and drop queued tasks.

        Idempotent; the pool is unusable afterwards.  Every local worker
        is joined, so ``RUSAGE_CHILDREN`` counts its CPU.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.clear()
        for worker in list(self._local):
            if worker.busy:
                self._unhook(worker)
                self._reap(worker, kill=True)
            else:
                self._retire(worker)
        for worker in self.registry.live():
            self._send_safe(worker, ("stop",))
            self._unhook(worker)
            self.registry.drop(worker, "stopped")
            worker.current = None
        if self._listener is not None:
            self._listener.close()
        self._sel.close()
        self._wake_r.close()
        self._wake_w.close()

    # -- submission --------------------------------------------------------

    def _workers(self) -> List[WorkerInfo]:
        return self._local + self.registry.live()

    @property
    def active_count(self) -> int:
        """Tasks currently executing in workers."""
        return sum(1 for w in self._workers() if w.busy)

    @property
    def queued_count(self) -> int:
        """Tasks waiting for a free worker."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Submitted-but-unreported tasks (queued + active)."""
        return self.active_count + self.queued_count

    def fleet(self) -> List[Dict[str, Any]]:
        """Worker rows for the ``/v1/workers`` fleet view.

        Live local workers (``transport: "pipe"``; no address,
        generations, or heartbeat), then every remote registration this
        pool has seen, terminal ones included (``transport: "tcp"``).
        """
        return [w.to_row() for w in list(self._local)] + self.registry.rows()

    def submit(
        self,
        key: str,
        fn: Callable[..., Any],
        kwargs: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
        trace: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Enqueue ``fn(**kwargs)`` under ``key``; FIFO within the pool.

        The completion arrives as a :class:`PoolEvent` from :meth:`events`.
        Keys are the caller's correlation handle and should be unique
        among in-flight tasks.  ``trace`` is an optional span-context
        dict (``{"trace_id", "span_id"}``) carried inside every delivery
        of the task — redeliveries after a lost worker included — so
        worker-side execution spans parent under the dispatching task
        span.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        call = pickle.dumps((fn, dict(kwargs or {})), protocol=pickle.HIGHEST_PROTOCOL)
        self._queue.append(_Task(key, call, timeout, trace))
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_pool_tasks_dispatched_total", "tasks submitted to the pool"
            ).inc()
        self._dispatch()
        if _metrics.REGISTRY.enabled:
            self._update_metric_gauges()

    def cancel_pending(self) -> List[str]:
        """Drop every queued (not yet running) task; returns their keys."""
        keys = [task.key for task in self._queue]
        self._queue.clear()
        return keys

    # -- completion --------------------------------------------------------

    def events(self, wait: float = 0.5) -> List[PoolEvent]:
        """Service the workers, then collect completions for up to ``wait`` s.

        One call forks or accepts workers, reads their frames, sends due
        heartbeats, expires pong and task deadlines, settles lost tasks,
        and dispatches eligible queued tasks.  Returns as soon as at
        least one event is available or :meth:`wake` is called; ``[]``
        on a quiet interval.
        """
        deadline = time.monotonic() + max(0.0, wait)
        woken = polled = False
        while not self._closed:
            # Every pass services timers and dispatch first, so workers
            # freed by the last select pick up queued tasks before
            # control returns to the caller.
            now = time.monotonic()
            self._check_timers(now)
            self._dispatch()
            if self._outbox or woken or (polled and now >= deadline):
                break
            timeout = max(0.0, min(deadline - now, self._next_timer(now)))
            for key, _ in self._sel.select(timeout):
                if key.data is _WAKE:
                    self._wake_r.recv(4096)  # drain every pending wake
                    woken = True
                elif key.data is _LISTENER:
                    self._accept()
                else:
                    self._read(key.data)
            polled = True
        events, self._outbox = self._outbox, []
        if _metrics.REGISTRY.enabled:
            self._account_events(events)
        return events

    # -- internals ---------------------------------------------------------

    def _next_timer(self, now: float) -> float:
        """Seconds until the nearest heartbeat/watchdog/backoff timer."""
        horizon = self.heartbeat_interval
        for worker in self._workers():
            horizon = min(horizon, worker.deadline - now)
            if worker.proc is None:
                horizon = min(horizon, worker.last_pong + self.heartbeat_timeout - now)
        for task in self._queue:
            if task.not_before > now:
                horizon = min(horizon, task.not_before - now)
        return max(0.001, horizon)

    def _fork(self) -> WorkerInfo:
        from multiprocessing import get_context

        ours, theirs = socket.socketpair()
        proc = get_context().Process(
            target=run_forked_worker, args=(theirs,), daemon=True
        )
        proc.start()
        theirs.close()
        wid = self._next_local_id
        self._next_local_id += 1
        worker = WorkerInfo(
            wid, f"pipe-{wid}", ours, None, {"pid": proc.pid}, 1, proc=proc
        )
        self._local.append(worker)
        self._sel.register(ours, selectors.EVENT_READ, worker)
        self.stats["workers_spawned"] += 1
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_pool_workers_spawned_total", "worker processes started"
            ).inc()
        return worker

    def _accept(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:  # BlockingIOError: no more pending connections
                return
            # Blocking frame I/O with a bounded patience: a peer that
            # stalls mid-frame longer than the heartbeat timeout is dead.
            conn.settimeout(self.heartbeat_timeout)
            enable_nodelay(conn)
            try:
                hello = recv_frame(conn)
                if frame_type(hello) != "hello":
                    raise FrameError(f"expected hello, got {hello[0]!r}")
                name = str(hello[1])
                meta = dict(hello[2]) if len(hello) > 2 and hello[2] else {}
            except (FrameError, OSError, IndexError):
                conn.close()
                continue
            worker, evicted = self.registry.register(name, conn, addr, meta)
            if evicted is not None:
                self._send_safe(evicted, ("evict", f"superseded by {worker.id}"))
                self._unhook(evicted)
                self._settle(
                    evicted, f"worker {name!r} superseded (split-brain eviction)"
                )
            self.stats["workers_spawned"] += 1
            if worker.generation > 1:
                self.stats["workers_reconnected"] += 1
            try:
                send_frame(conn, ("welcome", worker.id, worker.generation))
            except OSError:
                self._lose(worker, "died during registration")
                continue
            self._sel.register(conn, selectors.EVENT_READ, worker)
            self.registry.update_gauge()

    def _read(self, worker: WorkerInfo) -> None:
        if worker.conn.fileno() < 0:
            return  # dropped earlier in this select round
        try:
            frame = recv_frame(worker.conn)
        except (FrameError, OSError) as exc:
            self._lose(worker, f"connection lost ({exc})")
            return
        kind = frame[0]
        if kind in ("ok", "error"):
            key, payload, wall = frame[1], frame[2], frame[3]
            if len(frame) > 4 and _tracing.TRACER.enabled:
                # Worker-side exec spans ride home on the result frame.
                _tracing.TRACER.ingest(frame[4])
            task = worker.current
            if task is None or task.key != key:
                # A duplicate frame, or a result for a task the watchdog
                # already wrote off — stale either way.
                self.stats["stale_results"] += 1
                return
            worker.current = None
            worker.deadline = float("inf")
            worker.tasks_done += 1
            self.stats["tasks_completed"] += 1
            self._outbox.append(PoolEvent(key, kind, payload, worker.id, wall))
            if worker.proc is not None and worker.tasks_done >= MAX_TASKS_PER_WORKER:
                self.stats["recycled"] += 1
                self._retire(worker)
        elif kind == "pong":
            self.registry.record_pong(worker, int(frame[1]), float(frame[2]))
        else:
            self._lose(worker, f"protocol error: unexpected {kind!r} frame")

    def _check_timers(self, now: float) -> None:
        for worker in self._workers():
            if worker.busy and now >= worker.deadline:
                # Watchdog: a hung task is a task property — report
                # "timeout" and do NOT requeue; a late result from a
                # written-off remote worker is recognised as stale.
                task, worker.current = worker.current, None
                self.stats["timeouts"] += 1
                self._outbox.append(
                    PoolEvent(task.key, "timeout",
                              f"timed out after {task.timeout}s",
                              worker.id, now - worker.started)
                )
                self._lose(worker, "task watchdog expired")
                continue
            if worker.proc is not None:
                continue  # a socketpair to a child needs no heartbeat
            if now - worker.last_pong > self.heartbeat_timeout:
                self._lose(
                    worker,
                    f"heartbeat silence > {self.heartbeat_timeout}s "
                    "(lost or partitioned)",
                )
                continue
            if (
                worker.ping_sent is None
                and now - worker.last_pong >= self.heartbeat_interval
            ):
                worker.ping_seq += 1
                worker.ping_sent = (worker.ping_seq, now)
                if not self._send_safe(worker, ("ping", worker.ping_seq, now)):
                    self._lose(worker, "connection lost (ping send failed)")

    def _dispatch(self) -> None:
        """Hand eligible queued tasks to idle workers, forking up to ``jobs``."""
        if not self._queue:
            return
        now = time.monotonic()
        idle = [w for w in self._workers() if not w.busy]
        while self._queue:
            if not idle:
                if self._listener is not None or len(self._local) >= self.jobs:
                    return
                idle.append(self._fork())
            task = self._pop_eligible(now)
            if task is None:
                return
            worker = idle.pop(0)
            task.deliveries += 1
            worker.current = task
            worker.started = now
            worker.deadline = (
                now + task.timeout if task.timeout is not None else float("inf")
            )
            frame: Tuple[Any, ...] = ("task", task.key, task.call)
            if task.trace is not None:
                frame += (task.trace,)
            try:
                send_frame(worker.conn, frame)
            except (OSError, FrameError) as exc:
                self._lose(worker, f"connection lost (task send failed: {exc})")

    def _pop_eligible(self, now: float) -> Optional[_Task]:
        """FIFO pop of the first queued task whose backoff has elapsed."""
        for i, task in enumerate(self._queue):
            if task.not_before <= now:
                return self._queue.pop(i)
        return None

    def _lose(self, worker: WorkerInfo, reason: str) -> None:
        """A worker's link is gone: drop it, then settle its task."""
        self._unhook(worker)
        if worker.proc is not None:
            # EOF on a socketpair to a child means the child died; there
            # is no partition to wait out, so its task fails right away.
            self._reap(worker, kill=True)
            task, worker.current = worker.current, None
            if task is not None:
                self._crash(
                    task, worker,
                    f"worker crashed (exit code {worker.proc.exitcode})",
                )
            return
        self.registry.drop(worker, "lost")
        self.stats["workers_lost"] += 1
        self.registry.update_gauge()
        self._settle(worker, reason)

    def _settle(self, worker: WorkerInfo, reason: str) -> None:
        """Requeue a lost remote worker's task, or fail it as a crash."""
        task, worker.current = worker.current, None
        worker.deadline = float("inf")
        if task is None:
            return
        if task.deliveries < MAX_DELIVERIES:
            task.not_before = time.monotonic() + min(
                BACKOFF_BASE * (2 ** max(0, task.deliveries - 1)), BACKOFF_MAX
            )
            self._queue.append(task)
            self.stats["requeues"] += 1
            if _metrics.REGISTRY.enabled:
                _metrics.REGISTRY.counter(
                    "repro_net_tasks_requeued_total",
                    "in-flight tasks requeued off lost/evicted workers",
                ).inc()
        else:
            self._crash(
                task, worker,
                f"worker {worker.name!r} lost: {reason}; "
                f"{task.deliveries} deliveries exhausted",
            )

    def _crash(self, task: _Task, worker: WorkerInfo, message: str) -> None:
        self.stats["crashes"] += 1
        self._outbox.append(
            PoolEvent(task.key, "crash", message, worker.id,
                      time.monotonic() - worker.started)
        )

    def _retire(self, worker: WorkerInfo) -> None:
        """Gracefully stop an idle local worker (recycling / shutdown)."""
        self._send_safe(worker, ("stop",))
        self._unhook(worker)
        self._reap(worker)

    def _reap(self, worker: WorkerInfo, kill: bool = False) -> None:
        """Remove a local worker and make sure its process is gone."""
        if worker in self._local:
            self._local.remove(worker)
        proc = worker.proc
        if kill and proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - stuck even after kill
            proc.kill()
            proc.join()

    def _unhook(self, worker: WorkerInfo) -> None:
        try:
            self._sel.unregister(worker.conn)
        except (KeyError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    def _send_safe(self, worker: WorkerInfo, frame: Tuple[Any, ...]) -> bool:
        try:
            send_frame(worker.conn, frame)
            return True
        except (OSError, FrameError):
            return False

    # -- metrics -----------------------------------------------------------

    def _update_metric_gauges(self) -> None:
        """Refresh the pool's queue/occupancy gauges (registry enabled only)."""
        registry = _metrics.REGISTRY
        registry.gauge(
            "repro_pool_queue_depth", "tasks waiting for a free worker"
        ).set(len(self._queue))
        registry.gauge(
            "repro_pool_active_tasks", "tasks currently executing in workers"
        ).set(self.active_count)

    def _account_events(self, events: List[PoolEvent]) -> None:
        """Account a batch of completions into the registry (enabled only)."""
        registry = _metrics.REGISTRY
        if events:
            completed = registry.counter(
                "repro_pool_tasks_completed_total", "task completions by status"
            )
            latency = registry.histogram(
                "repro_pool_task_seconds", "per-task wall time inside workers"
            )
            for event in events:
                completed.inc(status=event.status)
                latency.observe(event.wall_time)
        recycled = registry.counter(
            "repro_pool_workers_recycled_total", "workers retired by recycling"
        )
        delta = self.stats["recycled"] - recycled.value()
        if delta > 0:
            recycled.inc(delta)
        self._update_metric_gauges()
