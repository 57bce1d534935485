"""Experiment sched — warm-pool vs serial sweep throughput, and host scaling.

The campaign scheduler's core bet (docs/SCHEDULER.md) is that keeping
worker processes warm — import :mod:`repro` once, then stream pickled
tasks — makes worker runs cheap.  This driver measures the pool on a
small-n slice of the Table 1a grid:

* ``pool``    — :class:`repro.sched.pool.WorkerPool` via
  ``parallel_sweep(executor="pool")`` (the default for worker runs);
* ``serial``  — in-process baseline, for scale.

Both must produce bit-identical sweep results (also pinned by
``tests/property/test_sched_props.py``); the points-per-second numbers
are written to ``BENCH_sched.json`` alongside the raw timings.  Run it
via ``python -m repro sched``.

A second leg (``hosts``) measures the same pool with remote workers
(docs/DISTRIBUTED.md): the same demo-task list drained over 1, 2, and 4
simulated hosts — ``python -m repro worker``-style processes dialling a
:class:`~repro.sched.pool.WorkerPool` port on 127.0.0.1.  The committed
acceptance floors are 1.6x at 2 hosts and 2.4x (near-linear) at 4;
``bench check`` re-measures both legs against the baseline.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from benchmarks.bench_table1_qsm_time import run_t1a_point
from benchmarks.common import PerfRow, print_perf_rows
from repro.analysis.parallel_sweep import default_jobs, parallel_sweep

#: Small-n Table 1a slice: cheap enough that per-task dispatch overhead
#: shows — exactly the regime campaigns live in.  36 points.
GRID = {
    "problem": ["LAC", "OR", "Parity"],
    "variant": ["deterministic", "randomized"],
    "n": [16, 24, 32, 48, 64, 96],
}

EXECUTORS = ("serial", "pool")

#: The multi-host A/B leg: one pool port, N simulated hosts (remote
#: worker processes dialling 127.0.0.1), the same task list each time.
#: Tasks sleep HOST_TASK_DELAY so the leg measures scheduling/fan-out,
#: not numpy throughput — with 24 tasks of 20ms the serial floor is
#: ~0.5s and near-linear scaling is visible well above timer noise.
HOST_COUNTS = (1, 2, 4)
HOST_TASKS = 24
HOST_TASK_DELAY = 0.02


def _grid_size(grid: Dict[str, List]) -> int:
    total = 1
    for values in grid.values():
        total *= len(values)
    return total


def _measure_hosts(hosts: int, tasks: int = HOST_TASKS,
                   delay: float = HOST_TASK_DELAY) -> float:
    """Wall time to drain ``tasks`` demo points over ``hosts`` TCP workers.

    Registration is setup, not measured; the clock covers submit →
    last completion.  Any non-``ok`` event fails the bench — the fabric
    under no injected faults must be loss-free (docs/DISTRIBUTED.md).
    """
    from repro.sched.campaigns import demo_task
    from repro.sched.net.worker import spawn_local_workers
    from repro.sched.pool import WorkerPool

    pool = WorkerPool(jobs=hosts, port=0)
    procs = spawn_local_workers(pool.address, hosts, name_prefix=f"bench{hosts}")
    try:
        deadline = time.monotonic() + 30.0
        while len(pool.registry.live()) < hosts:
            pool.events(wait=0.05)
            if time.monotonic() > deadline:
                raise RuntimeError(f"only {len(pool.registry.live())}/{hosts} "
                                   "bench workers registered")
        # One warm task per host before the clock starts: the first task
        # on a fresh worker pays the demo-task module import, which would
        # otherwise bill a per-host constant against the scaling curve.
        for i in range(hosts):
            pool.submit(f"h{hosts}-warm{i}", demo_task, {"n": 32, "delay": 0.0})
        warmed = 0
        while warmed < hosts:
            if time.monotonic() > deadline:
                raise RuntimeError(f"hosts={hosts} warmup stalled")
            warmed += sum(1 for e in pool.events(wait=0.2) if e.status == "ok")
        t0 = time.perf_counter()
        for i in range(tasks):
            pool.submit(f"h{hosts}-t{i}", demo_task, {"n": 32, "delay": delay})
        done = 0
        while done < tasks:
            if time.monotonic() > deadline:
                raise RuntimeError(f"hosts={hosts} leg stalled at {done}/{tasks}")
            for event in pool.events(wait=0.2):
                if event.status != "ok":
                    raise RuntimeError(
                        f"hosts={hosts} task {event.key} {event.status}: "
                        f"{event.payload}"
                    )
                if not event.payload.get("correct"):
                    raise RuntimeError(f"hosts={hosts} task {event.key} incorrect")
                done += 1
        return time.perf_counter() - t0
    finally:
        pool.shutdown()
        for proc in procs:
            proc.wait(timeout=10)


def collect_hosts() -> Dict[str, object]:
    """The 1-vs-2-vs-4 simulated-host scaling summary."""
    timings = {str(h): _measure_hosts(h) for h in HOST_COUNTS}
    t1 = timings["1"]
    return {
        "tasks": HOST_TASKS,
        "task_delay_s": HOST_TASK_DELAY,
        "timings": timings,
        "throughput": {h: HOST_TASKS / t for h, t in timings.items()},
        "speedup_2x": t1 / timings["2"],
        "speedup_4x": t1 / timings["4"],
    }


def collect(jobs: Optional[int] = None) -> Dict[str, object]:
    """Time the slice under each executor; verify bit-identical results."""
    jobs = default_jobs() if jobs is None else jobs
    points = _grid_size(GRID)
    results = {}
    timings: Dict[str, float] = {}
    for executor in EXECUTORS:
        t0 = time.perf_counter()
        results[executor] = parallel_sweep(
            GRID, run_t1a_point, jobs=jobs, executor=executor
        )
        timings[executor] = time.perf_counter() - t0
    identical = results["serial"] == results["pool"]
    return {
        "jobs": jobs,
        "points": points,
        "timings": timings,
        "throughput": {ex: points / timings[ex] for ex in EXECUTORS},
        "identical": identical,
        "correct": identical and all(p.correct for p in results["pool"]),
        "hosts": collect_hosts(),
    }


def write_bench_json(summary: Dict[str, object], path: Optional[str] = None) -> str:
    """Persist the measurement to ``BENCH_sched.json``; returns the path.

    The file lands in ``$REPRO_BENCH_CACHE`` when set (next to the other
    ``BENCH_*.json`` artifacts), else the current directory.
    """
    if path is None:
        root = os.environ.get("REPRO_BENCH_CACHE") or "."
        path = os.path.join(root, "BENCH_sched.json")
    payload = {k: v for k, v in summary.items()}
    payload["grid"] = GRID
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main() -> None:
    summary = collect()
    points = summary["points"]
    rows = [
        PerfRow(
            path=executor,
            n=points,
            ops=points,
            seconds=summary["timings"][executor],
            note={"serial": "in-process baseline",
                  "pool": "warm worker pool"}[executor],
        )
        for executor in EXECUTORS
    ]
    print_perf_rows(
        f"Sweep executors on a {points}-point Table 1a slice "
        f"(--jobs {summary['jobs']})",
        rows,
        baseline="serial",
    )
    print(f"\nresults identical: {summary['identical']}")
    hosts = summary["hosts"]
    host_rows = [
        PerfRow(
            path=f"{h} host(s)",
            n=hosts["tasks"],
            ops=hosts["tasks"],
            seconds=hosts["timings"][str(h)],
            note="remote workers, local simulated hosts",
        )
        for h in HOST_COUNTS
    ]
    print()
    print_perf_rows(
        f"Remote worker scaling on {hosts['tasks']} demo tasks "
        f"({hosts['task_delay_s'] * 1000:.0f}ms each)",
        host_rows,
        baseline="1 host(s)",
    )
    print(
        f"\nfabric scaling: {hosts['speedup_2x']:.2f}x at 2 hosts, "
        f"{hosts['speedup_4x']:.2f}x at 4 hosts"
    )
    out = write_bench_json(summary)
    print(f"wrote {out}")
    if not summary["correct"]:
        raise SystemExit("executors disagreed or produced incorrect points")
    if hosts["speedup_2x"] < 1.6:
        raise SystemExit(
            f"fabric scaling regressed: {hosts['speedup_2x']:.2f}x at 2 hosts "
            "(acceptance floor: 1.6x)"
        )
    if hosts["speedup_4x"] < 2.4:
        raise SystemExit(
            f"fabric scaling regressed: {hosts['speedup_4x']:.2f}x at 4 hosts "
            "(near-linear floor: 2.4x)"
        )


# --- pytest-benchmark targets ------------------------------------------------

def bench_sched_pool_matches_serial(benchmark):
    summary = benchmark(lambda: collect(jobs=2))
    benchmark.extra_info["throughput"] = summary["throughput"]
    assert summary["identical"], "executors must produce bit-identical sweeps"
    assert summary["correct"]


if __name__ == "__main__":
    main()
