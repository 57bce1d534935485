"""Declarative campaigns: task DAGs executed on the warm pool + store.

A **campaign** is a named task graph: each :class:`TaskSpec` names a
picklable callable, its keyword arguments, the tasks it depends on, a
priority, and per-task timeout/retry budgets.  :func:`run_campaign`
executes the graph on a :class:`~repro.sched.pool.WorkerPool` with the
outcomes persisted to a :class:`~repro.sched.store.ResultStore`:

* **Dependencies** gate dispatch — a task runs only after every dep
  succeeded; a failed dep marks its transitive dependents ``skipped``.
* **Priorities** order the ready set (higher first, stable within a
  priority), so long poles start early and pack the pool well.
* **Backpressure** — at most ``max_in_flight`` tasks (default
  ``2 * jobs``) are handed to the pool at once, so a huge campaign never
  materialises its whole frontier as queued pickles.
* **Resume** — a task whose content key is already in the store is served
  from it (span status ``"cached"``) without touching the pool.  Kill a
  campaign at any point and re-run it: only incomplete tasks execute.
  Cancelling (Ctrl-C) shuts the pool down but keeps everything already
  stored.
* **Observability** — every task becomes a :class:`TaskSpan`; the spans
  export to the scheduler lane of the Chrome-trace exporter
  (:func:`repro.obs.exporters.scheduler_trace_events`), one Perfetto row
  per worker, and stream as progress lines while the campaign runs.

Inline tasks (``inline=True``) run in the scheduler process itself and
receive their dependencies' outcomes as a first positional ``results``
dict — the cheap aggregation stages (verdict tables, summaries) that
need cross-task data but no isolation.  Inline outcomes are not stored:
they are derived data, recomputed from stored results on resume.

The DAG-stepping state itself lives in :class:`CampaignExecution`, an
incremental state machine with no pool loop of its own.  ``run_campaign``
drives exactly one execution to completion on one pool; the multi-tenant
service multiplexer (:class:`repro.sched.tenancy.FairShareMultiplexer`,
behind ``python -m repro serve``) drives many concurrent executions on a
single shared pool, which is why the stepping logic is factored out here
rather than inlined in the driver loop.
"""

from __future__ import annotations

import heapq
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sched.pool import PoolEvent, WorkerPool
from repro.sched.store import ResultStore, task_spec

__all__ = [
    "TaskSpec",
    "Campaign",
    "TaskSpan",
    "CampaignReport",
    "CampaignError",
    "CampaignExecution",
    "run_campaign",
    "campaign_status",
]


class CampaignError(ValueError):
    """An invalid campaign graph (duplicate names, unknown deps, cycles)."""


@dataclass(frozen=True)
class TaskSpec:
    """One node of a campaign graph.

    ``fn`` must be picklable (module-level, or :func:`functools.partial`
    of one) unless ``inline=True``.  Inline tasks are called as
    ``fn(results, **kwargs)`` with ``results`` mapping each dep name to
    its outcome dict; pool tasks are called as ``fn(**kwargs)`` and must
    return a JSON-serializable outcome dict.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    priority: int = 0
    timeout: Optional[float] = None
    retries: int = 0
    inline: bool = False

    def spec_dict(self) -> Dict[str, Any]:
        """The canonical (hashable) spec of this task's call."""
        return task_spec(self.fn, self.kwargs)


@dataclass(frozen=True)
class Campaign:
    """A named, validated task graph."""

    name: str
    tasks: Tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        self.validate()

    def validate(self) -> None:
        """Reject duplicate names, unknown deps and cycles (Kahn's order)."""
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise CampaignError(f"campaign {self.name!r}: duplicate task names {dupes}")
        known = set(names)
        for t in self.tasks:
            missing = [d for d in t.deps if d not in known]
            if missing:
                raise CampaignError(
                    f"campaign {self.name!r}: task {t.name!r} depends on "
                    f"unknown task(s) {missing}"
                )
        # Kahn's algorithm; anything left over sits on a cycle.
        remaining = {t.name: set(t.deps) for t in self.tasks}
        while True:
            free = [n for n, deps in remaining.items() if not deps]
            if not free:
                break
            for n in free:
                del remaining[n]
            for deps in remaining.values():
                deps.difference_update(free)
        if remaining:
            raise CampaignError(
                f"campaign {self.name!r}: dependency cycle among {sorted(remaining)}"
            )

    def task(self, name: str) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass
class TaskSpan:
    """The scheduler's record of one task: what ran where, when, and how.

    ``status`` is one of ``"done"`` (executed and stored), ``"cached"``
    (served from the store), ``"failed"`` (attempts exhausted),
    ``"skipped"`` (a dependency failed) or ``"pending"`` (campaign
    cancelled first).  ``start``/``end`` are seconds since the campaign
    started; ``worker`` is the pool worker id (0 for inline/cached/
    unstarted tasks).
    """

    name: str
    key: str
    status: str
    worker: int = 0
    start: float = 0.0
    end: float = 0.0
    attempts: int = 0
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "key": self.key,
            "status": self.status,
            "worker": self.worker,
            "start": self.start,
            "end": self.end,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass(frozen=True)
class CampaignReport:
    """What :func:`run_campaign` hands back."""

    campaign: str
    spans: Tuple[TaskSpan, ...]
    cancelled: bool
    wall_time: float
    store_root: str
    pool_stats: Mapping[str, int]
    #: 32-hex distributed-trace id of the run's root span on traced runs
    #: ($REPRO_TRACE, docs/OBSERVABILITY.md); None when tracing is off.
    trace_id: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.status] = out.get(span.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        """True iff every task completed (executed or served from the store)."""
        return not self.cancelled and all(
            s.status in ("done", "cached") for s in self.spans
        )

    @property
    def outcomes(self) -> Dict[str, Any]:
        """Completed task names (the store has the outcome payloads)."""
        return {s.name: s.status for s in self.spans if s.status in ("done", "cached")}

    def render(self) -> str:
        counts = self.counts
        parts = [f"{counts.get(k, 0)} {k}" for k in
                 ("done", "cached", "failed", "skipped", "pending") if counts.get(k)]
        head = (
            f"campaign {self.campaign}: {', '.join(parts) or 'empty'} "
            f"in {self.wall_time:.2f}s"
        )
        lines = [head]
        for span in self.spans:
            if span.status in ("failed", "skipped"):
                detail = f" — {span.error}" if span.error else ""
                lines.append(f"  {span.status}: {span.name}{detail}")
        return "\n".join(lines)


def _store_key(store: ResultStore, task: TaskSpec) -> str:
    return store.key_for(task.fn, task.kwargs)


class CampaignExecution:
    """Incremental DAG state machine for one campaign — no pool loop inside.

    The execution owns the graph bookkeeping (resume pass, ready
    frontier, dependency unlocking, retries accounting, the final
    skipped/pending classification) and the store writes; *when* tasks
    are handed to a pool, and to which pool, is the driver's business.
    Two drivers exist:

    * :func:`run_campaign` — one execution, one pool, runs to completion;
    * :class:`repro.sched.tenancy.FairShareMultiplexer` — many concurrent
      executions (one per tenant job) interleaved on one shared pool,
      with per-tenant fair-share and live cross-job dedup.

    ``labels`` (e.g. ``{"tenant": "alice"}``) are folded into every
    metrics-registry series the execution touches, so a multi-tenant
    snapshot can be sliced per tenant while unlabeled single-campaign
    runs keep their PR-5 series shapes.

    Driver protocol::

        ex = CampaignExecution(campaign, store)     # resume pass runs here
        while ex.has_pending:
            name = ex.pop_ready()
            if name is None: ...wait for events...
            elif ex.tasks[name].inline: ex.run_inline(name)
            else: spec = ex.start(name); pool.submit(name, spec.fn, ...)
            for event in pool.events():
                if ex.record_event(event) == "retry":
                    spec = ex.start(event.key); pool.submit(...)
        spans = ex.finish(cancelled=False)
    """

    def __init__(
        self,
        campaign: Campaign,
        store: ResultStore,
        clock: Optional[Callable[[], float]] = None,
        progress: Optional[Callable[[str], None]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if clock is None:
            t0 = time.monotonic()
            clock = lambda: time.monotonic() - t0  # noqa: E731
        self.campaign = campaign
        self.store = store
        self.clock = clock
        self.labels: Dict[str, str] = dict(labels or {})
        self._progress = progress
        self.tasks: Dict[str, TaskSpec] = {t.name: t for t in campaign.tasks}
        self.keys: Dict[str, str] = {
            t.name: _store_key(store, t) for t in campaign.tasks
        }
        self.total = len(self.tasks)
        self.spans: Dict[str, TaskSpan] = {}
        self.outcomes: Dict[str, Dict[str, Any]] = {}
        self.attempts: Dict[str, int] = {name: 0 for name in self.tasks}
        self.failed: Dict[str, str] = {}
        self.in_flight: Dict[str, float] = {}  # name -> dispatch time
        self._counter = 0
        self._ready: List[Tuple[int, int, str]] = []  # (-priority, seq, name)
        self._finished_spans: Optional[Tuple[TaskSpan, ...]] = None
        # Distributed-trace correlation key, set by the driver when tracing
        # is on (run_campaign's root span / the multiplexer's job span).
        self.trace_id: Optional[str] = None

        # Resume pass: anything already in the store is complete, regardless
        # of what happened to its deps in this or any previous run.
        for task in campaign.tasks:
            if task.inline:
                continue  # inline tasks are derived data; always recomputed
            cached = store.get_outcome(self.keys[task.name])
            if cached is not None:
                now = self.clock()
                self.outcomes[task.name] = cached
                self.spans[task.name] = TaskSpan(
                    task.name, self.keys[task.name], "cached", start=now, end=now
                )
                if _metrics.REGISTRY.enabled:
                    self._account("cached")
                    _metrics.REGISTRY.counter(
                        "repro_store_hits_total", "tasks served from the result store"
                    ).inc(**self.labels)
                self._emit(f"[{len(self.outcomes)}/{self.total}] cached {task.name}")

        self.remaining_deps: Dict[str, set] = {
            t.name: {d for d in t.deps if d not in self.outcomes}
            for t in campaign.tasks
            if t.name not in self.outcomes
        }
        for t in campaign.tasks:
            if t.name in self.remaining_deps and not self.remaining_deps[t.name]:
                self._push_ready(t.name)

    # -- small shared helpers ----------------------------------------------

    def _emit(self, line: str) -> None:
        if self._progress is not None:
            self._progress(line)

    def _account(self, status: str) -> None:
        _metrics.REGISTRY.counter(
            "repro_campaign_tasks_total", "task terminal states by status"
        ).inc(status=status, **self.labels)

    def _push_ready(self, name: str) -> None:
        heapq.heappush(self._ready, (-self.tasks[name].priority, self._counter, name))
        self._counter += 1

    # -- state queries ------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        """True while the execution still has ready or in-flight work.

        Loop invariant (same as PR 4's driver): a non-empty ready heap
        under backpressure implies in-flight work, so when both drain
        nothing can ever unblock again and the campaign is over.
        """
        return bool(self._ready or self.in_flight)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def counts(self) -> Dict[str, int]:
        """Span status counts so far (terminal states only)."""
        out: Dict[str, int] = {}
        for span in self.spans.values():
            out[span.status] = out.get(span.status, 0) + 1
        return out

    # -- dispatch side ------------------------------------------------------

    def pop_ready(self) -> Optional[str]:
        """Next dispatchable task name (highest priority), or ``None``.

        Entries obsoleted since they were enqueued — already completed,
        failed, or transitively blocked by a failure (classified
        ``skipped`` by :meth:`finish`) — are silently drained.
        """
        while self._ready:
            _, _, name = heapq.heappop(self._ready)
            if name in self.outcomes or name in self.failed:
                continue
            if any(d in self.failed for d in self.tasks[name].deps):
                continue  # will be marked skipped at the end
            return name
        return None

    def requeue(self, name: str) -> None:
        """Put a claimed-but-never-dispatched task back on the frontier.

        Used by the multiplexer when a live-dedup wait falls through (the
        job owning the in-flight key failed): the waiter must execute the
        task itself after all.
        """
        self.in_flight.pop(name, None)
        self._push_ready(name)

    def abandon(self, name: str) -> None:
        """Drop an in-flight task without any terminal span (cancelled job)."""
        self.in_flight.pop(name, None)

    def start(self, name: str) -> TaskSpec:
        """Claim ``name`` for dispatch: bump attempts, mark in flight."""
        task = self.tasks[name]
        self.attempts[name] += 1
        self.in_flight[name] = self.clock()
        if _metrics.REGISTRY.enabled and self.attempts[name] == 1:
            _metrics.REGISTRY.counter(
                "repro_store_misses_total", "tasks that had to execute"
            ).inc(**self.labels)
        return task

    def run_inline(self, name: str) -> bool:
        """Execute an inline task in this process; True iff it succeeded."""
        task = self.tasks[name]
        start = self.clock()
        results = {d: self.outcomes[d] for d in task.deps}
        try:
            value = task.fn(results, **dict(task.kwargs))
        except Exception as exc:
            self.attempts[name] += 1
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return False
        self.attempts[name] += 1
        span = TaskSpan(name, self.keys[name], "done",
                        start=start, end=self.clock(), attempts=1)
        self.complete(
            name, dict(value) if isinstance(value, Mapping) else {"value": value}, span
        )
        return True

    # -- completion side ----------------------------------------------------

    def complete(self, name: str, outcome: Dict[str, Any], span: TaskSpan) -> None:
        """Record a terminal success span and unlock dependents."""
        self.outcomes[name] = outcome
        self.spans[name] = span
        if _metrics.REGISTRY.enabled:
            self._account(span.status)
            _metrics.REGISTRY.histogram(
                "repro_campaign_task_seconds", "per-task campaign latency"
            ).observe(max(0.0, span.end - span.start), **self.labels)
        self._emit(f"[{len(self.outcomes)}/{self.total}] {span.status} {name} "
                   f"({span.end - span.start:.2f}s"
                   + (f", worker {span.worker}" if span.worker else "") + ")")
        for other, deps in self.remaining_deps.items():
            if name in deps:
                deps.discard(name)
                if not deps and other not in self.in_flight:
                    self._push_ready(other)

    def complete_cached(self, name: str, outcome: Dict[str, Any]) -> None:
        """Serve ``name`` from an outcome computed elsewhere (live dedup).

        The multiplexer calls this when another job stored the same
        content key — after this execution's own resume pass already ran.
        """
        start = self.in_flight.pop(name, self.clock())
        span = TaskSpan(name, self.keys[name], "cached",
                        start=start, end=self.clock(),
                        attempts=self.attempts[name])
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_store_hits_total", "tasks served from the result store"
            ).inc(**self.labels)
        self.complete(name, outcome, span)

    def fail(self, name: str, error: str) -> None:
        """Record a terminal failure span (attempts exhausted)."""
        self.failed[name] = error
        span = self.spans.get(name) or TaskSpan(name, self.keys[name], "failed")
        span.status = "failed"
        span.error = error
        span.attempts = self.attempts[name]
        span.end = self.clock()
        self.spans[name] = span
        if _metrics.REGISTRY.enabled:
            self._account("failed")
        self._emit(f"FAILED {name}: {error}")

    def record_event(self, event: PoolEvent) -> str:
        """Fold one pool completion into the graph state.

        ``event.key`` must be this execution's task name (drivers that
        namespace pool keys strip the prefix first).  Returns ``"done"``,
        ``"retry"`` (the driver must re-:meth:`start` and resubmit) or
        ``"failed"``.
        """
        name = event.key
        start = self.in_flight.pop(name, self.clock())
        task = self.tasks[name]
        if event.ok and isinstance(event.payload, Mapping):
            outcome = dict(event.payload)
            self.store.put(self.keys[name], outcome, spec=task.spec_dict())
            span = TaskSpan(
                name, self.keys[name], "done", worker=event.worker_id,
                start=start, end=self.clock(), attempts=self.attempts[name],
            )
            self.complete(name, outcome, span)
            return "done"
        error = (
            str(event.payload) if not event.ok
            else f"outcome is not a mapping: {type(event.payload).__name__}"
        )
        if self.attempts[name] <= task.retries:
            if _metrics.REGISTRY.enabled:
                _metrics.REGISTRY.counter(
                    "repro_campaign_retries_total", "task retry dispatches"
                ).inc(**self.labels)
            self._emit(f"retry {name} (attempt {self.attempts[name] + 1}): {error}")
            return "retry"
        self.fail(name, error)
        return "failed"

    # -- termination --------------------------------------------------------

    def finish(self, cancelled: bool = False) -> Tuple[TaskSpan, ...]:
        """Classify unfinished tasks and return the spans in campaign order.

        The transitive closure of failure is ``skipped`` (task-list order
        is not necessarily topological, so iterate to a fixpoint);
        everything else — reachable only when the campaign was cancelled —
        is ``pending``.  Idempotent: repeated calls return the same tuple.
        """
        if self._finished_spans is not None:
            return self._finished_spans
        blocked: Dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for task in self.campaign.tasks:
                if task.name in self.spans or task.name in blocked:
                    continue
                culprits = [
                    d for d in task.deps if d in self.failed or d in blocked
                ]
                if culprits:
                    blocked[task.name] = ", ".join(culprits)
                    changed = True
        for task in self.campaign.tasks:
            if task.name in self.spans:
                continue
            if task.name in blocked:
                self.spans[task.name] = TaskSpan(
                    task.name, self.keys[task.name], "skipped",
                    error=f"blocked by {blocked[task.name]}",
                )
                if _metrics.REGISTRY.enabled:
                    self._account("skipped")
            else:
                self.spans[task.name] = TaskSpan(
                    task.name, self.keys[task.name], "pending"
                )
        self._finished_spans = tuple(self.spans[t.name] for t in self.campaign.tasks)
        return self._finished_spans


def run_campaign(
    campaign: Campaign,
    store: ResultStore,
    jobs: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
    max_in_flight: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    metrics_interval: Optional[float] = None,
) -> CampaignReport:
    """Execute ``campaign`` on a warm pool, persisting outcomes to ``store``.

    Pass an existing ``pool`` to share workers across campaigns (it is not
    shut down) — forked local workers or remote ones behind a port alike;
    otherwise one is created with ``jobs`` forked workers and torn down
    at the end.  ``progress`` (e.g. ``print``) receives one line per
    task state change.  ``trace_path`` writes the Chrome trace when the
    campaign finishes (see docs/SCHEDULER.md) — the scheduler lane, plus,
    when metrics were on, the metrics counter lane and one phase-cost row
    per task outcome that carried ``cost_records``.

    ``metrics_path`` enables the process-wide metrics registry for the
    run and streams periodic :class:`repro.obs.snapshot.MetricsSnapshot`
    JSONL lines there (cadence ``metrics_interval`` seconds, default
    ``$REPRO_METRICS_INTERVAL`` or 1.0) — the stream ``python -m repro
    campaign status --follow`` tails for live progress.

    A ``KeyboardInterrupt`` cancels cleanly: in-flight work is abandoned,
    everything already stored stays stored, and the report (``cancelled=
    True``) lists the unfinished tasks as ``pending`` — re-running the
    campaign resumes from the store.
    """
    owns_pool = pool is None
    if pool is None:
        pool = WorkerPool(jobs=jobs)
    if max_in_flight is None:
        max_in_flight = 2 * pool.jobs
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")

    writer = None
    was_enabled = _metrics.REGISTRY.enabled
    if metrics_path is not None:
        from repro.obs.snapshot import SnapshotWriter

        _metrics.REGISTRY.enable()
        writer = SnapshotWriter(metrics_path, interval=metrics_interval)

    t0 = time.monotonic()

    def now() -> float:
        return time.monotonic() - t0

    registry = _metrics.REGISTRY
    if registry.enabled:
        registry.gauge(
            "repro_campaign_tasks", "tasks in the running campaign"
        ).set(len(campaign.tasks))
        registry.gauge(
            "repro_campaign_jobs", "pool workers serving the campaign"
        ).set(pool.jobs)

    execution = CampaignExecution(campaign, store, clock=now, progress=progress)
    cancelled = False

    # Distributed tracing (zero-cost when $REPRO_TRACE is off): the run
    # gets a root "job" span and each task a child "task" span whose context
    # rides to the workers inside the task frames, so remote-side exec
    # spans and PhaseCostRecord stamps all share one trace_id.
    root_span = None
    task_spans: Dict[str, Any] = {}
    if _tracing.TRACER.enabled:
        root_span = _tracing.TRACER.start_span(
            f"campaign:{campaign.name}", kind="job",
            attrs={"campaign": campaign.name, "tasks": len(campaign.tasks)},
        )
        execution.trace_id = root_span.trace_id

    def dispatch(name: str) -> None:
        spec = execution.start(name)
        trace = None
        if root_span is not None:
            span = task_spans.get(name)
            if span is None:
                span = _tracing.TRACER.start_span(
                    name, kind="task", parent=root_span, attrs={"task": name}
                )
                task_spans[name] = span
            span.attrs["attempts"] = execution.attempts[name]
            trace = span.context.to_dict()
        pool.submit(name, spec.fn, spec.kwargs, timeout=spec.timeout, trace=trace)

    restore_sigint = None
    try:
        while execution.has_pending:
            if registry.enabled:
                registry.gauge(
                    "repro_campaign_frontier_size", "ready-to-dispatch tasks"
                ).set(execution.ready_count)
                registry.gauge(
                    "repro_campaign_in_flight", "tasks handed to the pool"
                ).set(len(execution.in_flight))
            if writer is not None:
                writer.maybe_emit()
            # Dispatch the frontier, highest priority first, under backpressure.
            while pool.in_flight < max_in_flight:
                name = execution.pop_ready()
                if name is None:
                    break
                if execution.tasks[name].inline:
                    if root_span is not None:
                        with _tracing.TRACER.span(
                            name, kind="task", parent=root_span,
                            attrs={"task": name, "inline": True},
                        ):
                            execution.run_inline(name)
                    else:
                        execution.run_inline(name)
                else:
                    dispatch(name)
            if not execution.in_flight:
                if execution.has_pending:
                    # Backpressure from a shared pool still draining another
                    # campaign's leftovers; give it a beat to free slots.
                    pool.events(wait=0.1)
                continue  # inline completions may have opened new frontier

            for event in pool.events(wait=0.5):
                if event.key not in execution.tasks:
                    continue  # a shared pool's stale leftovers
                verdict = execution.record_event(event)
                if verdict == "retry":
                    dispatch(event.key)
                elif root_span is not None:
                    span = task_spans.pop(event.key, None)
                    if span is not None:
                        _tracing.TRACER.finish(
                            span, status="ok" if verdict == "done" else "error"
                        )
    except KeyboardInterrupt:
        cancelled = True
        # `timeout -s INT` (and an impatient Ctrl-C Ctrl-C) delivers SIGINT
        # both to the process and to its group, so a second interrupt can
        # land mid-cleanup; mask it until the orderly report is out.
        try:
            restore_sigint = signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # not the main thread: nothing to mask
            restore_sigint = None
        pool.cancel_pending()
        if progress is not None:
            progress(f"campaign {campaign.name} cancelled — "
                     f"{len(execution.outcomes)}/{execution.total} task(s) stored; "
                     "re-run to resume")
    finally:
        try:
            if owns_pool:
                pool.shutdown()
        finally:
            if restore_sigint is not None:
                signal.signal(signal.SIGINT, restore_sigint)
            # The final snapshot must survive *every* exit path — a task
            # function raising out of the event loop used to skip the
            # close() below and lose it (and leave the registry enabled).
            if writer is not None:
                if registry.enabled:
                    registry.gauge("repro_campaign_frontier_size").set(0)
                    registry.gauge("repro_campaign_in_flight").set(0)
                writer.close()
                if not was_enabled:
                    registry.disable()
            if root_span is not None:
                for span in task_spans.values():
                    _tracing.TRACER.finish(span, status="cancelled")
                _tracing.TRACER.finish(
                    root_span, status="cancelled" if cancelled else "ok"
                )

    ordered = execution.finish(cancelled=cancelled)
    report = CampaignReport(
        campaign=campaign.name,
        spans=ordered,
        cancelled=cancelled,
        wall_time=now(),
        store_root=store.root,
        pool_stats=dict(pool.stats),
        trace_id=execution.trace_id,
    )

    snapshots: Sequence[Any] = ()
    if writer is not None:
        snapshots = writer.snapshots

    if trace_path is not None:
        from repro.obs.exporters import write_combined_trace
        from repro.obs.records import PhaseCostRecord

        # Task outcomes that carried per-phase cost records (the demo
        # tasks do) become one simulated-time phase row each, next to the
        # scheduler spans and the metrics counter lane.
        phase_lanes = []
        for task in campaign.tasks:
            outcome = execution.outcomes.get(task.name)
            if isinstance(outcome, Mapping) and outcome.get("cost_records"):
                try:
                    records = [
                        PhaseCostRecord.from_dict(d)
                        for d in outcome["cost_records"]
                    ]
                except (KeyError, TypeError, ValueError):
                    continue  # a foreign/legacy outcome shape; not a trace row
                phase_lanes.append((task.name, records))
        # On traced runs the tracer's retained window holds this
        # campaign's finished job/task/exec spans (exec spans shipped
        # home in worker replies); exporting them alongside the phase
        # lanes draws the flow arrows from each exec span down to its
        # stamped phase-cost rows.
        trace_spans = []
        if _tracing.TRACER.enabled and execution.trace_id is not None:
            trace_spans = [
                s.to_dict() for s in list(_tracing.TRACER.finished)
                if s.trace_id == execution.trace_id
            ]
        write_combined_trace(
            trace_path,
            spans=[s.to_dict() for s in ordered],
            snapshots=snapshots,
            phase_lanes=phase_lanes,
            trace_spans=trace_spans,
        )
    return report


def campaign_status(campaign: Campaign, store: ResultStore) -> List[Tuple[str, str]]:
    """Per-task resume status against the store, in campaign order.

    Returns ``(task name, "done" | "pending" | "inline")`` rows — what
    ``python -m repro campaign status`` prints.  ``inline`` tasks are
    never stored, so their status is always recomputed at run time.
    """
    rows: List[Tuple[str, str]] = []
    for task in campaign.tasks:
        if task.inline:
            rows.append((task.name, "inline"))
        elif store.contains(_store_key(store, task)):
            rows.append((task.name, "done"))
        else:
            rows.append((task.name, "pending"))
    return rows
