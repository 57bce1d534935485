#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction's scheduler, service and fabric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-batch --seed 1 --seconds 20 --trace 0

Workloads (each one kind of job, one closed-loop client, two workers):

* ``table1-batch``  — ``run_campaign(table1_campaign(ns=...), fresh store,
  jobs=2)`` back to back in one runner process;
* ``chaos-fabric``  — ``serve run --workers-port 0`` plus two ``repro
  worker`` processes; fresh ``chaos`` jobs over HTTP/SSE;
* ``table1-cached`` — the default ``serve run`` (pipe pool); ``table1``
  resubmitted under seeded tenant names, every task served from the store.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
prints the per-layer metrics and ledger of :mod:`perfbench.ledger`.  The
last line of output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  The run exits 1 on any incorrect output or
failed job, and 2, without a result, when ``src/repro`` is missing.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("table1-batch", "chaos-fabric", "table1-cached")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
}


def host_facts() -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    import multiprocessing

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core.engine_vector import resolve_engine

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(),
        "engine": resolve_engine(),
    }


def end_to_end(name: str, seed: int, seconds: float, workdir: str,
               processes) -> Tuple[Any, Dict[str, Any]]:
    """The ``--trace 0`` run: the end-to-end metrics, tracing off."""
    from perfbench import passes

    if name == "table1-batch":
        setups, out = passes.batch_pass(processes, seed, seconds, workdir, SETUPS)
    else:
        setups, out, _ = passes.serve_pass(processes, name, seed, seconds,
                                           workdir, False, SETUPS)
    values = out.end_to_end(statistics.median(setups))
    print(f"set-ups: {', '.join(f'{s:.3f}s' for s in setups)}")
    print(f"jobs: {out.jobs} done in {out.wall_s:.3f}s, {out.failed} failed "
          f"of {out.attempted} attempted")
    print("counts: " + " ".join(f"{k}={v:g}" for k, v in out.counters.items()))
    print(f"output digest: {out.digest}")
    for key, value in values.items():
        print(f"  {key:16s} {value:12.6g} {E2E_UNITS[key]}")
    return out, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool
        ) -> Tuple[bool, int, int, Dict[str, Any]]:
    from perfbench import ledger
    from perfbench.procs import Processes

    os.makedirs(WORK, exist_ok=True)
    pidfile = os.path.join(WORK, "pids")
    alive = Processes.leftovers(pidfile)
    if alive:
        raise SystemExit(
            "perfbench: processes from an earlier run are still alive; stop "
            "them first:\n  " + "\n  ".join(alive)
        )
    workdir = os.path.join(WORK, "run")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    print(f"perfbench {name} seed={seed}: closed loop, 1 client, 2 workers")
    print("host: " + " ".join(f"{k}={v}" for k, v in host_facts().items()))
    processes = Processes(pidfile)
    try:
        if trace:
            out, values = ledger.traced(name, seed, seconds, workdir, processes)
            metrics = {k: {"value": v, "unit": ledger.UNITS[k]}
                       for k, v in values.items()}
        else:
            out, metrics = end_to_end(name, seed, seconds, workdir, processes)
    finally:
        processes.reap_all()
    out.problems += [f"process hygiene: {note}" for note in processes.escalations]
    for drop in out.drops:
        print(f"dropped connection, request made again: {drop}")
    for problem in out.problems:
        print(f"PROBLEM: {problem}")
    correct = not out.problems and out.failed == 0 and out.jobs > 0
    return correct, max(1, out.attempted), out.failed, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    correct, attempted, failed, metrics = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
