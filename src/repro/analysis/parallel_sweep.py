"""Worker-pool parameter sweeps — a fault-tolerant drop-in for :func:`sweep`.

Large Table 1 sweeps are embarrassingly parallel: every grid point builds a
fresh machine, runs one algorithm, and verifies independently.
:func:`parallel_sweep` farms the grid points out to the warm worker
processes of :class:`repro.sched.pool.WorkerPool` and returns the points
in the same order :func:`repro.analysis.sweep.sweep` would.  The
``serial`` executor runs them in-process instead — the reference path,
with no pickling requirement.

Fault tolerance
---------------
A long sweep must not lose hours of completed points to one bad grid point
(see docs/ROBUSTNESS.md for the full contract):

* **Timeouts** — ``timeout`` bounds each point's runtime; a point that
  exceeds it has its worker process killed.
* **Crash isolation** — a worker that dies (segfault, ``os._exit``, OOM
  kill) fails only its own point; the sweep keeps going on a fresh worker.
* **Retries** — ``retries`` re-runs a failed point up to that many extra
  times, with exponential ``backoff`` between attempts; a success after
  retries carries ``extra["sweep_attempts"]``.
* **Partial results** — with ``on_error="record"``, a point whose attempts
  are exhausted yields a :class:`SweepPoint` with ``measured=nan``,
  ``correct=False`` and ``extra["error"]`` (``SweepPoint.failed`` /
  ``SweepPoint.error`` read it back) instead of aborting the sweep.  The
  default ``on_error="raise"`` raises :class:`SweepPointError`; either
  way every outcome completed before the failure persists to the store.

Determinism
-----------
Grid points are enumerated in the canonical :func:`grid_points` order and
results are reassembled in that order, so a parallel run returns the same
``SweepPoint`` list as a serial one.  When the ``run`` callable takes an
explicit seed, pass ``seed_arg`` and each point receives
:func:`derive_point_seed` of its parameters — a per-point seed that depends
only on the point (not on scheduling, job count, or enumeration order), so
serial and parallel runs of any job count agree bit for bit.

Result store
------------
Pass ``store`` (a :class:`repro.sched.store.ResultStore`) to persist every
completed point's outcome, content-addressed the same way campaign tasks
are.  Re-runs only execute grid points that are missing, so an
interrupted sweep resumes where it stopped.  Outcomes round-trip through
JSON: keep ``extra`` values JSON-serializable if you rely on the store.
Error outcomes are **never** stored — a re-run retries them.  A torn
entry is quarantined by the store, and a stored outcome without
``measured``/``correct`` is ignored; either way the point re-runs and its
entry is rewritten.

Cost provenance
---------------
The Table 1 drivers put ``dominant_terms`` (the cost-weighted
dominant-term fractions :func:`repro.obs.records.dominant_fractions` reads
from each machine's phase history) into each outcome dict, so
every stored point records *why* it cost what it did —
``SweepPoint.dominant_terms`` reads it back.  The fractions are plain
``{term: float}`` dicts and survive the JSON round trip unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.sweep import SweepPoint, grid_points, point_from_outcome

__all__ = [
    "parallel_sweep",
    "point_key",
    "derive_point_seed",
    "default_jobs",
    "SweepPointError",
    "JOBS_ENV",
    "EXECUTORS",
]


class SweepPointError(RuntimeError):
    """A grid point exhausted its attempts (``on_error="raise"`` mode).

    ``params`` is the failing point, ``error`` the last failure message.
    """

    def __init__(self, params: Mapping[str, Any], error: str, attempts: int) -> None:
        super().__init__(
            f"sweep point {dict(params)!r} failed after {attempts} attempt(s): {error}"
        )
        self.params = dict(params)
        self.error = error
        self.attempts = attempts

#: Environment variable consulted for the default job count; the CLI's
#: ``--jobs`` flag sets it so every bench in a run picks it up.
JOBS_ENV = "REPRO_JOBS"

#: Recognised executors.  ``auto`` resolves to ``serial`` for
#: ``jobs=1`` without a timeout or pool and to ``pool`` (the warm worker
#: pool of :mod:`repro.sched.pool`) otherwise.
EXECUTORS = ("auto", "serial", "pool")


def default_jobs() -> int:
    """Job count when ``jobs`` is not given: ``$REPRO_JOBS`` or the CPU count."""
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def point_key(params: Mapping[str, Any]) -> str:
    """Stable string identity of one grid point (cache key, seed input).

    Key order is canonicalised so ``{'n': 4, 'g': 2}`` and
    ``{'g': 2, 'n': 4}`` name the same point.
    """
    return json.dumps(dict(params), sort_keys=True, default=repr)


def derive_point_seed(base_seed: Any, params: Mapping[str, Any]) -> int:
    """Deterministic 63-bit seed for one grid point.

    Depends only on ``base_seed`` and the point's parameters — not on the
    job count, worker scheduling, or the position of the point in the grid —
    so serial and parallel sweeps hand each point the same randomness.
    """
    digest = hashlib.sha256(
        f"{base_seed!r}|{point_key(params)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _call_point(
    run: Callable[..., Dict[str, Any]],
    params: Mapping[str, Any],
    seed_arg: Optional[str],
    base_seed: Any,
) -> Dict[str, Any]:
    kwargs = dict(params)
    if seed_arg is not None:
        kwargs[seed_arg] = derive_point_seed(base_seed, params)
    return run(**kwargs)


def _valid_cache_entry(value: Any) -> bool:
    """Schema check for one stored outcome: the :func:`point_from_outcome`
    contract, and not a (never-stored, but defend anyway) error record."""
    return (
        isinstance(value, dict)
        and "measured" in value
        and "correct" in value
        and "error" not in value
    )


class _Attempting:
    """Retry bookkeeping for one pending grid point."""

    __slots__ = ("params", "key", "failures", "not_before", "last_error")

    def __init__(self, params: Dict[str, Any]) -> None:
        self.params = params
        self.key = point_key(params)
        self.failures = 0
        self.not_before = 0.0
        self.last_error = ""


def _error_outcome(error: str, attempts: int) -> Dict[str, Any]:
    return {
        "measured": float("nan"),
        "correct": False,
        "error": error,
        "sweep_attempts": attempts,
    }


def _run_serial(
    pending: List[_Attempting],
    outcomes: Dict[str, Dict[str, Any]],
    run: Callable[..., Dict[str, Any]],
    seed_arg: Optional[str],
    base_seed: Any,
    retries: int,
    backoff: float,
    on_error: str,
) -> None:
    """In-process execution (no pickling requirement, no timeout support)."""
    for task in pending:
        while True:
            try:
                outcome = _call_point(run, task.params, seed_arg, base_seed)
            except Exception as exc:
                task.failures += 1
                task.last_error = f"{type(exc).__name__}: {exc}"
                if task.failures <= retries:
                    if backoff > 0:
                        time.sleep(backoff * 2 ** (task.failures - 1))
                    continue
                if on_error == "raise":
                    raise SweepPointError(
                        task.params, task.last_error, task.failures
                    ) from exc
                outcomes[task.key] = _error_outcome(task.last_error, task.failures)
                break
            if task.failures:
                outcome = dict(outcome)
                outcome["sweep_attempts"] = task.failures + 1
            outcomes[task.key] = outcome
            break


def _run_pool(
    pending: List[_Attempting],
    outcomes: Dict[str, Dict[str, Any]],
    run: Callable[..., Dict[str, Any]],
    seed_arg: Optional[str],
    base_seed: Any,
    jobs: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    on_error: str,
    pool: Optional[Any] = None,
) -> None:
    """Warm-pool execution with watchdog timeouts, retries and crash isolation."""
    from repro.sched.pool import WorkerPool

    owns_pool = pool is None
    if pool is None:
        pool = WorkerPool(jobs=jobs)
    tasks_by_key = {task.key: task for task in pending}
    waiting: List[_Attempting] = list(pending)  # unsubmitted (new or backing off)
    in_flight: set = set()

    def fail(task: _Attempting, error: str) -> None:
        task.failures += 1
        task.last_error = error
        if task.failures <= retries:
            task.not_before = time.monotonic() + (
                backoff * 2 ** (task.failures - 1) if backoff > 0 else 0.0
            )
            waiting.append(task)
            return
        if on_error == "raise":
            raise SweepPointError(task.params, error, task.failures)
        outcomes[task.key] = _error_outcome(error, task.failures)

    try:
        while waiting or in_flight:
            now = time.monotonic()
            for task in [t for t in waiting if t.not_before <= now]:
                waiting.remove(task)
                in_flight.add(task.key)
                pool.submit(
                    task.key,
                    _call_point,
                    {
                        "run": run,
                        "params": task.params,
                        "seed_arg": seed_arg,
                        "base_seed": base_seed,
                    },
                    timeout=timeout,
                )
            if not in_flight:
                # Everything left is backing off; sleep until one is due.
                wake = min(t.not_before for t in waiting)
                time.sleep(max(0.0, min(wake - time.monotonic(), 0.1)))
                continue
            for event in pool.events(wait=0.5):
                task = tasks_by_key.get(event.key)
                if task is None or event.key not in in_flight:
                    continue  # a shared pool's stale leftovers
                in_flight.discard(event.key)
                if event.ok:
                    payload = event.payload
                    if task.failures:
                        payload = dict(payload)
                        payload["sweep_attempts"] = task.failures + 1
                    outcomes[task.key] = payload
                else:
                    fail(task, str(event.payload))
    finally:
        if owns_pool:
            pool.shutdown()


def parallel_sweep(
    grid: Mapping[str, Sequence[Any]],
    run: Callable[..., Dict[str, Any]],
    jobs: Optional[int] = None,
    seed_arg: Optional[str] = None,
    base_seed: Any = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.0,
    on_error: str = "raise",
    executor: str = "auto",
    pool: Optional[Any] = None,
    store: Optional[Any] = None,
    store_scope: Optional[str] = None,
) -> List[SweepPoint]:
    """Run ``run(**point)`` over the grid with ``jobs`` workers.

    Drop-in for :func:`repro.analysis.sweep.sweep`: same grid semantics,
    same outcome contract (``measured``/``correct``/``bound``/extras), same
    result order.  Differences:

    * points execute in up to ``jobs`` worker processes (default:
      ``$REPRO_JOBS`` or the CPU count) selected by ``executor``:
      ``"pool"`` (the warm worker pool of :mod:`repro.sched.pool`),
      ``"serial"`` (in-process), or ``"auto"`` (serial for ``jobs=1``
      without a timeout or pool, else the pool).  Pass an existing
      :class:`~repro.sched.pool.WorkerPool` as ``pool`` to share warm
      workers across sweeps;
    * with ``seed_arg``, each call receives ``run(**point, seed_arg=s)``
      where ``s = derive_point_seed(base_seed, point)``;
    * with ``store`` (a :class:`repro.sched.store.ResultStore`),
      completed outcomes persist content-addressed under ``(store_scope
      or run's module:qualname, point params, base seed, store version)``
      and re-runs skip points already stored — the same cache campaigns
      read and write;
    * ``timeout`` / ``retries`` / ``backoff`` / ``on_error`` add the fault
      tolerance described in the module docstring.

    ``run`` must be picklable (a module-level function) when worker
    processes are used; serial execution has no pickling requirement
    (crashes there are ordinary exceptions, still subject to retries and
    ``on_error``).  Both executors produce bit-identical results for a
    deterministic ``run`` — property-tested in
    ``tests/property/test_sched_props.py``.
    """
    if jobs is not None and int(jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")

    points = grid_points(grid)
    jobs = default_jobs() if jobs is None else int(jobs)
    resolved = executor
    if resolved == "auto":
        resolved = "serial" if (jobs == 1 and timeout is None and pool is None) else "pool"
    if resolved == "serial" and timeout is not None:
        raise ValueError("the serial executor cannot enforce timeouts")

    store_keys: Dict[str, str] = {}
    if store is not None:
        scope = run if store_scope is None else store_scope
        extra = {"base_seed": base_seed} if seed_arg is not None else None
        for params in points:
            store_keys[point_key(params)] = store.key_for(scope, params, extra)

    from repro.obs import metrics as _metrics

    def _count_points(source: str, n: int = 1) -> None:
        _metrics.REGISTRY.counter(
            "repro_sweep_points_total", "sweep points by result source"
        ).inc(n, source=source)

    outcomes: Dict[str, Dict[str, Any]] = {}
    pending: List[_Attempting] = []
    for params in points:
        key = point_key(params)
        if store is not None:
            stored = store.get_outcome(store_keys[key])
            if stored is not None and _valid_cache_entry(stored):
                outcomes[key] = stored
                if _metrics.REGISTRY.enabled:
                    _count_points("store")
                continue
        pending.append(_Attempting(dict(params)))

    try:
        if pending:
            if resolved == "serial":
                _run_serial(
                    pending, outcomes, run, seed_arg, base_seed,
                    retries, backoff, on_error,
                )
            else:
                _run_pool(
                    pending, outcomes, run, seed_arg, base_seed,
                    jobs, timeout, retries, backoff, on_error, pool=pool,
                )
    finally:
        # Persist whatever completed — even when a point raised — so an
        # aborted sweep resumes instead of restarting.  Error outcomes are
        # never stored: a re-run gives them a fresh chance.
        if store is not None:
            from repro.sched.store import task_spec

            for task in pending:
                value = outcomes.get(task.key)
                if value is not None and _valid_cache_entry(value):
                    store.put(
                        store_keys[task.key], value,
                        spec=task_spec(scope, task.params, extra),
                    )

    if _metrics.REGISTRY.enabled and pending:
        _count_points("run", len(pending))
        failures = sum(task.failures for task in pending)
        if failures:
            _metrics.REGISTRY.counter(
                "repro_sweep_point_failures_total",
                "failed point attempts (each one a retry or a recorded error)",
            ).inc(failures)

    return [point_from_outcome(params, outcomes[point_key(params)]) for params in points]
