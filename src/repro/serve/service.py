"""The campaign service core: scheduler loop + event hub, no HTTP.

:class:`CampaignService` owns the shared substrate — one
:class:`~repro.sched.store.ResultStore`, one warm pool behind a
:class:`~repro.sched.tenancy.FairShareMultiplexer` — and runs the single
scheduler thread that all pool interaction is confined to.  The HTTP
front end (:mod:`repro.serve.http`) calls in from handler threads:
``submit``/``cancel``/``job`` are lock-safe multiplexer calls, every job
envelope is rendered under the multiplexer lock (``view``/``jobs_view``),
and ``subscribe`` registers a bounded queue that the scheduler loop feeds
with three kinds of events:

* ``job`` — a :func:`~repro.serve.contracts.job_view` envelope whenever
  a job changes state (queued → running → done/failed/cancelled);
* ``snapshot`` — a ``repro.metrics/1``
  :class:`~repro.obs.snapshot.MetricsSnapshot` captured on a fixed
  cadence, the same payload ``SnapshotWriter`` writes to JSONL;
* ``workers`` — a :func:`~repro.serve.contracts.fleet_view` envelope
  whenever the worker fleet changes shape (a worker registers, goes
  lost, is evicted, or finishes a task).

Slow consumers never stall the scheduler: queues are bounded and the
oldest event is dropped on overflow (SSE consumers are refresh-tolerant
— the dashboard rebuilds from the next snapshot).  Metrics are enabled
for the lifetime of the service and restored to their prior state on
:meth:`stop`, so embedding the service in a test leaves the global
registry the way it found it.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.snapshot import MetricsSnapshot, default_interval
from repro.sched.pool import WorkerPool
from repro.sched.store import ResultStore
from repro.sched.tenancy import (
    FairShareMultiplexer,
    JobRecord,
    QuotaExceeded,
    TenantQuota,
)
from repro.serve.contracts import (
    ContractError,
    SubmitRequest,
    fleet_view,
    job_view,
    jobs_view,
    slo_view,
)
from repro.serve.registry import CampaignEntry, default_registry

__all__ = ["CampaignService", "Subscription"]

#: Events a slow subscriber can lag by before the oldest is dropped.
_QUEUE_DEPTH = 256

#: Longest the scheduler thread blocks in one ``step`` waiting for pool
#: events; submissions, cancellations and ``stop`` end the wait at once.
POLL_WAIT = 0.2


class Subscription:
    """One subscriber's bounded event queue.

    ``get`` returns ``(event, data, done)`` tuples — ``done`` marks the
    terminal ``job`` event of the watched job so a per-job stream knows
    to close.  Iterating a subscription from the scheduler's point of
    view is lossy-by-design: on overflow the oldest event is dropped.
    """

    def __init__(self, job_id: Optional[str]) -> None:
        self.job_id = job_id
        self._queue: "queue.Queue[Tuple[str, str, bool]]" = queue.Queue(_QUEUE_DEPTH)

    def get(self, timeout: float) -> Optional[Tuple[str, str, bool]]:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def push(self, event: str, data: str, done: bool = False) -> None:
        while True:
            try:
                self._queue.put_nowait((event, data, done))
                return
            except queue.Full:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    pass


class CampaignService:
    """The long-running multi-tenant campaign service (transport-free)."""

    def __init__(
        self,
        store_path: str,
        jobs: Optional[int] = None,
        quota: Optional[TenantQuota] = None,
        registry: Optional[Dict[str, CampaignEntry]] = None,
        snapshot_interval: Optional[float] = None,
        metrics_path: Optional[str] = None,
        progress: Optional[Any] = None,
        workers_port: Optional[int] = None,
        workers_host: str = "127.0.0.1",
    ) -> None:
        self.store = ResultStore(store_path)
        self.registry = default_registry() if registry is None else dict(registry)
        self.snapshot_interval = (
            default_interval() if snapshot_interval is None else float(snapshot_interval)
        )
        if self.snapshot_interval <= 0:
            raise ValueError(
                f"snapshot_interval must be positive, got {snapshot_interval}"
            )
        self._metrics_were_enabled = _metrics.REGISTRY.enabled
        _metrics.REGISTRY.enable()
        # With a workers port, remote workers dial in and register
        # (docs/DISTRIBUTED.md) and ``jobs`` (default 4) only sizes the
        # backpressure; without one the pool forks local workers.
        if workers_port is not None and not jobs:
            jobs = 4
        self.mux = FairShareMultiplexer(
            self.store,
            pool=WorkerPool(jobs=jobs, port=workers_port, host=workers_host),
            quota=quota,
            progress=None if progress is None else (
                lambda job_id, line: progress(f"{job_id}: {line}")
            ),
        )
        self._subs: List[Subscription] = []
        self._subs_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = time.monotonic()
        self._t0_wall = time.time()
        self._snap_seq = 0
        #: Optional JSONL mirror of the SSE snapshot stream, so `campaign
        #: status --follow` can tail a service the same way it tails a run.
        self._metrics_path = metrics_path
        self._metrics_fh: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread.  Idempotent."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the scheduler, shut the pool down, restore metrics state.

        Queued/running jobs are cancelled; whatever their in-flight
        tasks stored stays in the store, so resubmitting after a restart
        resumes (the kill-mid-campaign CI leg).
        """
        self._stop.set()
        self.mux.pool.wake()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.mux.shutdown()
        self.mux.pool.shutdown()
        self._broadcast_snapshot(final=True)
        if self._metrics_fh is not None:
            self._metrics_fh.close()
            self._metrics_fh = None
        if not self._metrics_were_enabled:
            _metrics.REGISTRY.disable()

    # -- request side (any thread) -------------------------------------------

    def submit(
        self,
        tenant: str,
        request: SubmitRequest,
        parent: Optional["_tracing.SpanContext"] = None,
    ) -> Tuple[JobRecord, Dict[str, Any]]:
        """Validate, build, and admit a submission.

        Returns the new job and its envelope as admitted (``queued``,
        rendered before the scheduler is woken) — the ``201`` body.
        ``parent`` is the HTTP request span's context on traced runs —
        the job span (and every task/exec/phase span under it) joins
        that trace, so one ``trace_id`` covers submit to terminal state.
        Raises :class:`ContractError`: ``unknown_campaign`` (404),
        ``bad_option`` (400), or the quota codes (429).
        """
        entry = self.registry.get(request.campaign)
        if entry is None:
            known = ", ".join(sorted(self.registry))
            raise ContractError(
                "unknown_campaign",
                f"unknown campaign {request.campaign!r}; available: {known}",
                status=404,
            )
        campaign = entry.build(request.options)
        admitted: List[Dict[str, Any]] = []
        try:
            job = self.mux.submit(
                tenant, campaign, parent=parent,
                on_admit=lambda record: admitted.append(job_view(record)),
            )
        except QuotaExceeded as exc:
            raise ContractError(exc.code, str(exc), status=429)
        self._broadcast_job(job)
        return job, admitted[0]

    def job(self, job_id: str) -> JobRecord:
        job = self.mux.job(job_id)
        if job is None:
            raise ContractError("not_found", f"no job {job_id!r}", status=404)
        return job

    def view(self, job: JobRecord) -> Dict[str, Any]:
        """``job``'s envelope, read in one hold of the multiplexer lock."""
        return self.mux.view(job, job_view)[0]

    def jobs_view(self, tenant: Optional[str] = None) -> Dict[str, Any]:
        """The job-list envelope, read in one hold of the multiplexer lock."""
        return self.mux.view_jobs(jobs_view, tenant)

    def cancel(self, job_id: str, tenant: str) -> JobRecord:
        """Cancel ``job_id`` if it belongs to ``tenant``.

        In-flight tasks drain into the store first (resume hits for a
        resubmission); the terminal ``cancelled`` job event reaches
        subscribers from the scheduler loop once the drain completes.
        """
        job = self.job(job_id)
        if job.tenant != tenant:
            raise ContractError(
                "wrong_tenant",
                f"job {job_id!r} belongs to tenant {job.tenant!r}",
                status=403,
            )
        self.mux.cancel(job_id)
        return job

    def workers(self) -> Dict[str, Any]:
        """The worker-fleet envelope for ``GET /v1/workers``.

        ``fleet()`` is a read-only snapshot, safe to call from handler
        threads while the scheduler polls.
        """
        return fleet_view(self.mux.pool)

    def slo(self) -> Dict[str, Any]:
        """The percentile SLO envelope for ``GET /v1/slo``.

        Computed from the tracer's bounded window of finished spans —
        exact nearest-rank percentiles, not sketch estimates.  Cheap
        enough for a dashboard poll; answers with empty buckets when
        tracing is off.
        """
        return slo_view(_tracing.TRACER.slo())

    def campaigns(self) -> Dict[str, Any]:
        """The campaign catalogue envelope for ``GET /v1/campaigns``."""
        from repro.serve.contracts import SCHEMA

        return {
            "schema": SCHEMA,
            "campaigns": [
                self.registry[name].to_dict() for name in sorted(self.registry)
            ],
        }

    def subscribe(self, job_id: Optional[str] = None) -> Subscription:
        """Register an event queue; ``job_id`` filters to one job's events.

        A per-job subscription is primed with the job's current state so
        a watcher attaching after completion still gets the terminal
        event.  The subscription is registered *before* that state is
        read, so a transition racing the attach is either in the primer
        or broadcast to the queue afterwards — never lost.  Pair with
        :meth:`unsubscribe`.
        """
        sub = Subscription(job_id)
        job = None if job_id is None else self.job(job_id)  # not_found first
        with self._subs_lock:
            self._subs.append(sub)
        if job is not None:
            data, done = self._job_event(job)
            sub.push("job", data, done=done)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._subs_lock:
            if sub in self._subs:
                self._subs.remove(sub)

    # -- scheduler loop (one thread) -----------------------------------------

    def _loop(self) -> None:
        next_snap = time.monotonic()
        fleet_digest: Optional[Tuple[Any, ...]] = None
        while not self._stop.is_set():
            changed = self.mux.step(wait=POLL_WAIT)
            for job in changed:
                self._broadcast_job(job)
            digest = self._fleet_digest()
            if digest != fleet_digest:
                fleet_digest = digest
                self._broadcast_workers()
            now = time.monotonic()
            if changed or now >= next_snap:
                self._broadcast_snapshot()
                next_snap = now + self.snapshot_interval

    def _fleet_digest(self) -> Tuple[Any, ...]:
        # Heartbeat latencies jitter every pong; digest only the fields
        # whose change is worth an SSE event.
        return tuple(
            (r["id"], r["state"], r["current"], r["tasks_done"])
            for r in self.mux.pool.fleet()
        )

    def _broadcast_workers(self) -> None:
        data = json.dumps(fleet_view(self.mux.pool), sort_keys=True)
        with self._subs_lock:
            subs = [s for s in self._subs if s.job_id is None]
        for sub in subs:
            sub.push("workers", data)

    def _job_event(self, job: JobRecord) -> Tuple[str, bool]:
        """The job's ``job`` event data and terminal flag, from one snapshot."""
        return self.mux.view(
            job, lambda record: json.dumps(job_view(record), sort_keys=True)
        )

    def _broadcast_job(self, job: JobRecord) -> None:
        """Push ``job``'s event to its receivers; render it only if any.

        A subscriber that registers after the receivers are read primes
        itself from a state no older than this broadcast's, so it loses
        nothing by being left out.
        """
        with self._subs_lock:
            subs = [s for s in self._subs if s.job_id in (None, job.id)]
        if not subs:
            return
        data, done = self._job_event(job)
        for sub in subs:
            sub.push("job", data, done=done and sub.job_id is not None)

    def _broadcast_snapshot(self, final: bool = False) -> None:
        """Capture a snapshot for the ``--metrics`` file and every global
        subscriber; with neither there is nothing to capture, and ``seq``
        counts only the snapshots emitted."""
        with self._subs_lock:
            subs = [s for s in self._subs if s.job_id is None]
        if not subs and self._metrics_path is None:
            return
        now = time.monotonic()
        snap = MetricsSnapshot.capture(
            seq=self._snap_seq,
            t_wall=self._t0_wall + (now - self._t0),
            t_rel=now - self._t0,
            final=final,
        )
        self._snap_seq += 1
        data = json.dumps(snap.to_dict(), sort_keys=True)
        if self._metrics_path is not None:
            if self._metrics_fh is None:
                parent = os.path.dirname(os.path.abspath(self._metrics_path))
                os.makedirs(parent, exist_ok=True)
                self._metrics_fh = open(self._metrics_path, "w", encoding="utf-8")
            self._metrics_fh.write(data + "\n")
            self._metrics_fh.flush()
        for sub in subs:
            sub.push("snapshot", data)
