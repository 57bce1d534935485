"""The ``table1-batch`` runner: Table 1 campaigns back to back, in-process.

Run as its own process so that set-up (interpreter start, imports, one
warm-up campaign) is measured from a fresh start::

    python3 perfbench/batch.py --seed 1 --seconds 10 --workdir DIR

It prints ``READY`` once set up, then (unless ``--setup-only``) calls
``run_campaign(table1_campaign(ns=...), fresh ResultStore, jobs=2)`` in a
closed loop for ``--seconds`` and prints one ``RESULT {json}`` line with
each campaign's latency, CPU, report and store directory; the caller
checks the stores.  Each campaign gets a fresh store, so every task is
executed and every result is a store write, as in ``python -m repro
campaign run table1``.

``--modes plain,traced,metrics`` runs the campaigns in turn untraced,
traced (``enable_tracing``; the pool workers fork with it on), and with
``run_campaign(metrics_path=...)``, so that drift in the host's speed
falls on all three alike and their ratio is the cost of tracing and of
metrics.

The seed draws each campaign's small size from the 2^8 size class; the
2^10 and 2^12 sizes stay at 1024 and 4096, which are in the ``P_FOR``
table of ``benchmarks/bench_table1_rounds.py``, so every campaign keeps
its t1d rounds cells
and has the same 76-task shape.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from typing import Any, Dict, List

from perfbench import procs


def sizes(seed: int, index: int) -> List[int]:
    """Problem sizes of campaign ``index`` (negative: warm-up)."""
    rng = random.Random(f"table1-batch/{seed}/{index}")
    return [rng.randint(224, 288), 1024, 4096]


def _cpu_seconds() -> float:
    """CPU of this process and every reaped child (the pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--modes", default="plain",
                        help="comma-separated campaign modes used in turn: "
                        "plain, traced, metrics")
    parser.add_argument("--trace-path", default=None,
                        help="span file of the traced campaigns")
    args = parser.parse_args(argv)
    modes = args.modes.split(",")

    from repro.obs.tracing import disable_tracing, enable_tracing
    from repro.sched.campaign import run_campaign
    from repro.sched.campaigns import table1_campaign
    from repro.sched.store import ResultStore

    os.makedirs(args.workdir, exist_ok=True)
    warm = run_campaign(
        table1_campaign(ns=sizes(args.seed, -1)),
        ResultStore(os.path.join(args.workdir, "warmup")), jobs=2,
    )
    if not warm.ok:
        print(warm.render(), file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    campaigns: List[Dict[str, Any]] = []
    t_start = time.perf_counter()
    t_last = t_start
    index = 0
    while time.perf_counter() - t_start < args.seconds:
        mode = modes[index % len(modes)]
        ns = sizes(args.seed, index)
        campaign = table1_campaign(ns=ns)
        store_dir = os.path.join(args.workdir, f"store-{index:04d}")
        metrics_path = (os.path.join(args.workdir, f"metrics-{index:04d}.jsonl")
                        if mode == "metrics" else None)
        if mode == "traced":
            enable_tracing(path=args.trace_path)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        report = run_campaign(campaign, ResultStore(store_dir), jobs=2,
                              metrics_path=metrics_path)
        t1 = time.perf_counter()
        cpu_s = _cpu_seconds() - cpu0
        if mode == "traced":
            disable_tracing()
        campaigns.append({
            "index": index,
            "mode": mode,
            "ns": ns,
            "latency_s": t1 - t0,
            # Closed-loop time this campaign took, gaps between calls included.
            "slot_s": t1 - t_last,
            "cpu_s": cpu_s,
            "store": store_dir,
            "ok": report.ok,
            "counts": report.counts,
            "tasks": len(campaign.tasks),
            "stored_tasks": sum(1 for t in campaign.tasks if not t.inline),
            "retries": sum(max(0, s.attempts - 1) for s in report.spans),
            "pool_stats": dict(report.pool_stats),
            "trace_id": report.trace_id,
        })
        t_last = t1
        index += 1

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    print("RESULT " + json.dumps({
        "campaigns": campaigns,
        "peak_rss_mb": procs.vm_hwm_mb(os.getpid()),
        "worker_peak_rss_mb": children.ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
