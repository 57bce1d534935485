"""The scheduler-side worker registry: names, liveness, split-brain policy.

Remote workers introduce themselves by name (``hello`` frame); the
registry is the single source of truth for what the scheduler believes
about the fleet.  Per worker it tracks the connection, a monotonic
heartbeat deadline, the current task assignment, and a lifecycle state:

=============  ========================================================
state          meaning
=============  ========================================================
``live``       registered, heartbeating, eligible for tasks
``lost``       heartbeat deadline expired or the connection died; its
               in-flight task was requeued by the pool
``evicted``    a newer registration with the same name superseded it
               (split-brain: the *latest* registration wins, the stale
               connection is told ``evict`` and closed)
``stopped``    retired cleanly at shutdown
=============  ========================================================

Names are the worker's stable identity across reconnects: a worker that
reconnects after a partition re-registers under its old name and gets a
bumped ``generation`` — the fleet view shows one row per name with its
reconnect count rather than a new anonymous row per TCP connection.

Every deadline here is ``time.monotonic`` arithmetic; wall-clock jumps
cannot spuriously expire a healthy worker (docs/DISTRIBUTED.md, and the
same audit that keeps :mod:`repro.sched.pool` watchdogs monotonic).
Registration transitions feed the worker-fleet metrics
(``repro_net_workers_{registered,lost,reconnected}_total``) when the
process-wide registry is enabled.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.util.clock import wallclock

__all__ = ["WorkerInfo", "WorkerRegistry", "WORKER_STATES"]

#: Every state a registered worker can report, in lifecycle order.
WORKER_STATES = ("live", "lost", "evicted", "stopped")


class WorkerInfo:
    """One pool worker, as the scheduler sees it.

    Remote workers register through :class:`WorkerRegistry`; a worker
    the pool forked itself carries its ``multiprocessing`` process in
    ``proc``, has no address, and reports ``transport: "pipe"``.
    """

    __slots__ = (
        "id", "name", "conn", "addr", "meta", "generation", "state",
        "registered_at", "registered_wall", "last_pong", "ping_seq",
        "ping_sent", "last_latency", "tasks_done", "current", "deadline",
        "started", "proc",
    )

    def __init__(
        self,
        wid: int,
        name: str,
        conn: Any,
        addr: Optional[Tuple[str, int]],
        meta: Dict[str, Any],
        generation: int,
        proc: Optional[Any] = None,
    ) -> None:
        now = time.monotonic()
        self.id = wid
        self.name = name
        self.conn = conn
        self.addr = addr
        self.meta = dict(meta)
        self.generation = generation
        self.state = "live"
        self.registered_at = now          # monotonic: deadline math
        self.registered_wall = wallclock()  # display only
        self.last_pong = now
        self.ping_seq = 0
        #: (seq, t_mono) of the outstanding ping, or None.
        self.ping_sent: Optional[Tuple[int, float]] = None
        self.last_latency: Optional[float] = None
        self.tasks_done = 0
        self.current: Optional[Any] = None  # the pool's _Task
        self.deadline = float("inf")        # current task's watchdog deadline
        self.started = 0.0
        self.proc = proc                    # forked local worker, else None

    @property
    def busy(self) -> bool:
        return self.current is not None

    def to_row(self) -> Dict[str, Any]:
        """The fleet-view row (``GET /v1/workers``, ``serve workers``)."""
        local = self.proc is not None
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "generation": self.generation,
            "addr": None if local else f"{self.addr[0]}:{self.addr[1]}",
            "pid": self.meta.get("pid"),
            "host": self.meta.get("host"),
            "tasks_done": self.tasks_done,
            "current": getattr(self.current, "key", None),
            "registered": None if local else self.registered_wall,
            "heartbeat_latency_s": self.last_latency,
            "transport": "pipe" if local else "tcp",
        }


class WorkerRegistry:
    """Name-keyed registration with latest-wins split-brain eviction."""

    def __init__(self) -> None:
        self._next_id = 1
        #: Every registration ever seen this process, by id (fleet history).
        self._workers: Dict[int, WorkerInfo] = {}
        #: name -> the live registration holding that name.
        self._live_by_name: Dict[str, WorkerInfo] = {}
        #: name -> registration count (generation of the next register()).
        self._generations: Dict[str, int] = {}

    # -- transitions ---------------------------------------------------------

    def register(
        self,
        name: str,
        conn: Any,
        addr: Tuple[str, int],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Tuple[WorkerInfo, Optional[WorkerInfo]]:
        """Admit a ``hello``; returns ``(worker, evicted)``.

        If ``name`` is already held by a live connection, that older
        registration is the split-brain loser: it is returned as
        ``evicted`` (state flipped here; the pool owns telling it and
        requeueing its task).  A name seen before — evicted or lost —
        re-registers with a bumped generation, which the metrics count
        as a reconnect.
        """
        evicted = self._live_by_name.get(name)
        if evicted is not None:
            evicted.state = "evicted"
            del self._live_by_name[evicted.name]
        generation = self._generations.get(name, 0) + 1
        self._generations[name] = generation
        worker = WorkerInfo(self._next_id, name, conn, addr, meta or {}, generation)
        self._next_id += 1
        self._workers[worker.id] = worker
        self._live_by_name[name] = worker
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_net_workers_registered_total",
                "remote worker registrations (hello frames admitted)",
            ).inc()
            if generation > 1:
                _metrics.REGISTRY.counter(
                    "repro_net_workers_reconnected_total",
                    "re-registrations of a previously seen worker name",
                ).inc()
        return worker, evicted

    def drop(self, worker: WorkerInfo, state: str) -> None:
        """Move ``worker`` out of the live set into ``state``."""
        if state not in WORKER_STATES or state == "live":
            raise ValueError(f"cannot drop to state {state!r}")
        worker.state = state
        if self._live_by_name.get(worker.name) is worker:
            del self._live_by_name[worker.name]
        if state == "lost" and _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_net_workers_lost_total",
                "workers declared lost (heartbeat expiry or dead connection)",
            ).inc()

    # -- heartbeat bookkeeping ----------------------------------------------

    def record_pong(self, worker: WorkerInfo, seq: int, t_sent: float) -> None:
        """Fold a ``pong`` echo in; observes the round-trip latency."""
        now = time.monotonic()
        worker.last_pong = now
        if worker.ping_sent is not None and worker.ping_sent[0] == seq:
            worker.ping_sent = None
        worker.last_latency = max(0.0, now - t_sent)
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.histogram(
                "repro_net_heartbeat_seconds",
                "ping/pong round-trip latency per heartbeat",
            ).observe(worker.last_latency)

    def expired(self, timeout: float, now: Optional[float] = None) -> List[WorkerInfo]:
        """Live workers whose last pong is older than ``timeout`` seconds."""
        now = time.monotonic() if now is None else now
        return [w for w in self.live() if now - w.last_pong > timeout]

    # -- queries -------------------------------------------------------------

    def live(self) -> List[WorkerInfo]:
        return list(self._live_by_name.values())

    def by_name(self, name: str) -> Optional[WorkerInfo]:
        return self._live_by_name.get(name)

    def all(self) -> List[WorkerInfo]:
        """Every registration this process has seen, oldest first."""
        return [self._workers[i] for i in sorted(self._workers)]

    def rows(self) -> List[Dict[str, Any]]:
        """Fleet-view rows: one per live worker, plus terminal history."""
        return [w.to_row() for w in self.all()]

    def update_gauge(self) -> None:
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.gauge(
                "repro_net_workers_live", "currently registered live workers"
            ).set(len(self._live_by_name))
