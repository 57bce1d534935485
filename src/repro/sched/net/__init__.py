"""The worker wire: frames, the worker loop, and remote registration.

:class:`~repro.sched.pool.WorkerPool` is the one pool; this package is
everything its workers share.  Every worker — forked locally over a
socketpair, or dialling in over TCP from another host — speaks the
length-prefixed pickle frames of :mod:`repro.sched.net.frames` and runs
the one serve loop of :mod:`repro.sched.net.worker`.  Remote workers
register by name and heartbeat for liveness
(:mod:`repro.sched.net.registry`).

Failure semantics (docs/DISTRIBUTED.md): a lost or partitioned remote
worker's in-flight task requeues with bounded exponential backoff; only
when its delivery budget is exhausted does the caller see a ``"crash"``
event and its own retry policy take over.  A local worker cannot be
partitioned, so its loss is a ``"crash"`` at once.  The
content-addressed :class:`~repro.sched.store.ResultStore` is the shared
cross-host cache, so any host's completed point is served everywhere.
:mod:`repro.sched.net.proxy` is the chaos shim that injects
:mod:`repro.faults.net` frame-level network faults between the two.
"""

from repro.sched.net.frames import (
    ConnectionClosed,
    FrameError,
    MAX_FRAME_BYTES,
    frame_type,
    recv_frame,
    send_frame,
)
from repro.sched.net.registry import WorkerInfo, WorkerRegistry
from repro.sched.net.worker import run_worker, spawn_local_workers

__all__ = [
    "ConnectionClosed",
    "FrameError",
    "MAX_FRAME_BYTES",
    "frame_type",
    "recv_frame",
    "send_frame",
    "WorkerInfo",
    "WorkerRegistry",
    "run_worker",
    "spawn_local_workers",
]
