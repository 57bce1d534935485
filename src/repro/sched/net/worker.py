"""The worker process: one serve loop for forked local and remote workers.

:func:`serve` is the whole task protocol a worker speaks, over any
connected socket: read ``task`` frames, run ``fn(**kwargs)``, answer
``("ok"|"error", key, payload, wall)``.  Two kinds of process run it:

* **Forked local workers** — :class:`~repro.sched.pool.WorkerPool`
  without a port forks them with :mod:`multiprocessing` and hands each
  one end of a ``socket.socketpair()``; :func:`run_forked_worker` is
  their entry point.
* **Remote workers** — :func:`run_worker` (``python -m repro worker``)
  dials a pool's TCP port, introduces itself with a ``hello`` (name +
  pid/host meta), then serves the same loop.

Tasks execute on a side thread so the loop keeps answering ``ping``
frames while a task runs — a busy remote worker must still prove
liveness, otherwise every long task would read as a partition.  The
task's callable travels pickled inside the task frame and is unpickled
on that thread, so a task the worker cannot load (a function from a
module missing on this host) and a result that will not pickle both come
back as ``error`` replies instead of costing the worker its link.  On
traced runs (:mod:`repro.obs.tracing`), the task frame's optional 4th
field carries the dispatching span's context; the runner opens an
``exec`` span under it and ships the finished span back on the result
frame, so one ``trace_id`` survives the hop — and any requeue — across
hosts.

A remote worker whose connection drops reconnects with bounded
exponential backoff under the *same name*: the scheduler's registry
recognises the name and bumps its generation, so the fleet view shows
one worker that reconnected rather than a parade of strangers.  Two
exits are final: ``stop`` (clean shutdown, exit 0) and ``evict`` (a
newer registration took this worker's name, exit 3) — an evicted worker
reconnecting would just re-evict its successor and flap forever.

Duplicated ``task`` frames (chaos ``duplicate`` faults) are queued and
served in order; the scheduler matches results against its current
assignment and drops stale ones, so at-least-once delivery is safe.

``spawn_local_workers`` boots N remote workers as subprocesses against a
pool's port — the simulated multi-host fleet the chaos harness, the CI
``chaos-net`` job, and the 1/2/4-host benchmark legs all stand on.
"""

from __future__ import annotations

import collections
import os
import pickle
import queue
import selectors
import socket
import stat
import subprocess
import sys
import threading
import time
from typing import Any, Deque, List, Optional, Tuple

from repro.obs import tracing as _tracing
from repro.sched.net.frames import (
    ConnectionClosed,
    FrameError,
    enable_nodelay,
    encode_frame,
    recv_frame,
    send_frame,
)

__all__ = [
    "serve",
    "run_worker",
    "run_forked_worker",
    "spawn_local_workers",
    "EXIT_STOPPED",
    "EXIT_LOST",
    "EXIT_EVICTED",
]

EXIT_STOPPED = 0   #: scheduler sent ``stop``
EXIT_LOST = 1      #: connection lost and reconnect budget exhausted
EXIT_EVICTED = 3   #: a newer registration superseded this name

#: Redial backoff of a remote worker: attempt ``k`` waits
#: ``min(REDIAL_BACKOFF_BASE * 2**(k-1), REDIAL_BACKOFF_MAX)`` seconds.
REDIAL_BACKOFF_BASE = 0.1
REDIAL_BACKOFF_MAX = 2.0


def _encode_reply(frame: Tuple[Any, ...]) -> bytes:
    """Wire bytes of a result frame; an unsendable value becomes an error."""
    try:
        return encode_frame(frame)
    except Exception as exc:
        # The value would not pickle (or overflows the frame cap): report
        # it as the task's error rather than losing the link with the
        # task in flight.
        return encode_frame(
            ("error", frame[1], f"result not sendable: {exc}") + frame[3:]
        )


class _Runner(threading.Thread):
    """Runs one connection's tasks in arrival order, off the serve loop.

    The serve loop puts ``(key, call[, trace])`` tuples on ``tasks`` and
    ``None`` to stop; each finished task's encoded reply lands in
    ``replies``.  One byte on the ``wake`` pipe then makes the loop's
    ``select`` return at once, which keeps per-task latency at the link
    RTT rather than a poll tick (the difference between 2x and
    near-linear host scaling in ``benchmarks/bench_sched.py``).  The
    runner owns the pipe's write end and closes it when it stops, so a
    task still running after its connection died can never write into a
    reused descriptor.
    """

    def __init__(self, transport: str, wake: int) -> None:
        super().__init__(daemon=True, name="repro-task-runner")
        self.transport = transport
        self.tasks: "queue.SimpleQueue[Optional[Tuple[Any, ...]]]" = queue.SimpleQueue()
        self.replies: Deque[bytes] = collections.deque()
        self._wake = wake

    def run(self) -> None:
        try:
            for task in iter(self.tasks.get, None):
                self.replies.append(self._execute(*task))
                try:
                    os.write(self._wake, b"\0")
                except OSError:
                    pass  # serve loop already gone; the reply is moot
        finally:
            os.close(self._wake)

    def _execute(self, key: str, call: bytes, trace: Optional[dict] = None) -> bytes:
        # Trace context rode in on the task frame: open an "exec" span
        # under it and activate it on *this* thread (explicit handoff —
        # the serve loop's context must not leak across tasks), so
        # PhaseCostRecords built by the task stamp the right span.
        span = None
        if trace is not None and _tracing.TRACER.enabled:
            span = _tracing.TRACER.start_span(
                key, kind="exec",
                parent=_tracing.SpanContext.from_dict(trace),
                attrs={"key": key, "transport": self.transport},
            )
            _tracing.TRACER.activate(None if span is None else span.context)
        start = time.perf_counter()
        try:
            fn, kwargs = pickle.loads(call)
            frame: Tuple[Any, ...] = (
                "ok", key, fn(**kwargs), time.perf_counter() - start,
            )
        except BaseException as exc:  # report, don't die
            frame = (
                "error", key, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
            )
        if span is not None:
            _tracing.TRACER.activate(None)
            _tracing.TRACER.finish(
                span, status="ok" if frame[0] == "ok" else "error"
            )
            frame = frame + ([span.to_dict()],)
        return _encode_reply(frame)


def serve(sock: socket.socket, transport: str = "tcp") -> int:
    """Serve tasks on one connected socket until stop/evict/loss.

    Returns an ``EXIT_*`` code for terminal frames; raises
    :class:`ConnectionClosed` (or ``OSError``) when the link dies.
    ``transport`` labels the worker's ``exec`` spans (``"pipe"`` for a
    forked local worker, ``"tcp"`` for a remote one).
    """
    # A pipe, not a socketpair: the worker's only socket stays its link.
    # A selector, not select.select: a forked worker keeps the socketpair
    # fd number its parent gave it, which may be above FD_SETSIZE.
    wake_r, wake_w = os.pipe()
    runner = _Runner(transport, wake_w)
    runner.start()
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    sel.register(wake_r, selectors.EVENT_READ)
    try:
        while True:
            readable = {key.fileobj for key, _ in sel.select()}
            if wake_r in readable:
                os.read(wake_r, 4096)
                while runner.replies:
                    sock.sendall(runner.replies.popleft())
            if sock not in readable:
                continue
            frame = recv_frame(sock)
            kind = frame[0]
            if kind == "task":
                runner.tasks.put(frame[1:])
            elif kind == "ping":
                send_frame(sock, ("pong", frame[1], frame[2]))
            elif kind == "stop":
                return EXIT_STOPPED
            elif kind == "evict":
                return EXIT_EVICTED
            # Anything else (a duplicated welcome, say) is noise; ignore it.
    finally:
        sel.close()
        runner.tasks.put(None)  # the runner closes wake_w once it stops
        os.close(wake_r)


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close every socket fd a ``fork`` copied into this worker.

    A forked worker inherits whatever sockets its parent held open — an
    HTTP listen socket, accepted SSE connections, its siblings' links,
    the pool's wake pipe.  The copies keep those connections
    half-alive: the parent closing its end no longer sends a FIN, so a
    peer writing to a "closed" socket never sees an error (the serve
    disconnect probe), and a killed server's port stays bound by its own
    workers.  Workers are compute-only; their end of the socketpair is
    the one socket they need.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (FileNotFoundError, NotADirectoryError, OSError):
        return  # no /proc (macOS): inherited sockets stay open, as before
    for fd in fds:
        if fd < 3 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def run_forked_worker(sock: socket.socket) -> None:
    """Entry point of a worker the pool forked: serve its socketpair end."""
    _close_inherited_sockets(sock.fileno())
    # A forked worker inherits the scheduler's trace sink; exec spans
    # already ship home in replies, so writing here would double them.
    _tracing.TRACER.detach_sink()
    try:
        serve(sock, transport="pipe")
    except (FrameError, OSError):
        pass  # the pool closed its end or died: nothing left to serve
    finally:
        sock.close()


def run_worker(
    host: str,
    port: int,
    name: Optional[str] = None,
    reconnect: bool = True,
    max_reconnects: Optional[int] = None,
    connect_timeout: float = 5.0,
) -> int:
    """Serve tasks from the scheduler at ``(host, port)`` until told to stop.

    Blocks for the worker's whole life; returns an ``EXIT_*`` code.
    ``name`` defaults to ``<hostname>-<pid>``; keep it stable across
    restarts of the same slot so reconnects bump a generation instead of
    minting a new identity.  ``max_reconnects`` bounds redials after a
    lost connection (``None`` = unbounded, the chaos-friendly default);
    the *initial* connection gets the same budget.
    """
    name = name or f"{socket.gethostname()}-{os.getpid()}"
    meta = {"pid": os.getpid(), "host": socket.gethostname()}
    attempts = 0
    while True:
        sock: Optional[socket.socket] = None
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            enable_nodelay(sock)
            # Registration is bounded by the connect timeout: a partition
            # that ate the hello must not pin the worker waiting for a
            # welcome that will never come — fail fast and redial.
            send_frame(sock, ("hello", name, meta))
            welcome = recv_frame(sock)
            if welcome[0] != "welcome":
                raise FrameError(f"expected welcome, got {welcome[0]!r}")
            sock.settimeout(30.0)  # frame reads are select-gated; backstop only
            attempts = 0  # a successful registration resets the redial budget
            return serve(sock)
        except (ConnectionClosed, FrameError, OSError, socket.timeout):
            attempts += 1
            if not reconnect or (
                max_reconnects is not None and attempts > max_reconnects
            ):
                return EXIT_LOST
            time.sleep(min(REDIAL_BACKOFF_BASE * (2 ** (attempts - 1)),
                           REDIAL_BACKOFF_MAX))
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass


def spawn_local_workers(
    address: Tuple[str, int],
    count: int,
    name_prefix: str = "local",
    reconnect: bool = True,
    connect_timeout: float = 5.0,
) -> List[subprocess.Popen]:
    """Boot ``count`` remote-worker subprocesses dialling ``address``.

    The simulated multi-host fleet: each worker is a real OS process
    with its own interpreter, named ``{name_prefix}-{i}``.  Returns the
    ``Popen`` handles; callers own reaping them (``pool.shutdown()``
    sends every live worker ``stop``, after which they exit 0).
    """
    host, port = address
    bootstrap = (
        "import sys; from repro.sched.net.worker import run_worker; "
        "sys.exit(run_worker({host!r}, {port}, name={name!r}, "
        "reconnect={reconnect!r}, connect_timeout={connect_timeout!r}))"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = []
    for i in range(count):
        code = bootstrap.format(
            host=host, port=port, name=f"{name_prefix}-{i}",
            reconnect=reconnect, connect_timeout=connect_timeout,
        )
        procs.append(subprocess.Popen([sys.executable, "-c", code], env=env))
    return procs
