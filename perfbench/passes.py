"""The timed passes behind ``run.py``: one runner or service, one closed loop.

A pass sets up from scratch (a fresh process, store and workers), runs
the workload's closed loop for the given seconds, checks every output,
and returns an :class:`Outcome`.  ``run.py`` makes the ``--trace 0``
passes and :mod:`perfbench.ledger` the ``--trace 1`` ones.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Jobs whose simulated costs go into the output digest.
DIGEST_JOBS = 3


def nearest_rank(values: List[float], pct: float) -> float:
    """Exact nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Outcome:
    """What one pass measured, before it becomes metrics."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.worker_peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: HTTP requests whose connection dropped and that were made again.
        self.drops: List[str] = []
        self.counters: Dict[str, float] = {}
        self.digest = ""
        self.extra: Dict[str, Any] = {}

    @property
    def jobs(self) -> int:
        return len(self.latencies)

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        jobs = max(1, self.jobs)
        return {
            "setup_s": setup_s,
            "jobs_per_s": self.jobs / self.wall_s if self.wall_s > 0 else 0.0,
            "job_p50_s": statistics.median(self.latencies) if self.latencies else 0.0,
            "job_p90_s": nearest_rank(self.latencies, 90) if self.latencies else 0.0,
            "cpu_ms_per_job": 1000.0 * self.cpu_s / jobs,
            "peak_rss_mb": self.peak_rss_mb,
        }


# -- table1-batch ------------------------------------------------------------


def run_batch_pass(processes, seed: int, seconds: float, workdir: str,
                   setup_only: bool = False, modes: str = "plain",
                   trace_file: Optional[str] = None
                   ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """One ``batch.py`` process: returns (set-up seconds, RESULT payload or None)."""
    os.makedirs(workdir, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "batch.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", workdir, "--modes", modes]
    if setup_only:
        argv.append("--setup-only")
    if trace_file is not None:
        argv += ["--trace-path", trace_file]
    t0 = time.perf_counter()
    proc = processes.spawn(argv, procs.base_env(ROOT), ROOT,
                           os.path.join(workdir, "runner.log"),
                           stdout=subprocess.PIPE)
    payload = None
    setup_s = None
    try:
        for raw in proc.stdout:
            line = raw.decode("utf-8", errors="replace").strip()
            if line == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                payload = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        code = processes.wait(proc, grace=60.0)
    if code != 0 or setup_s is None or (not setup_only and payload is None):
        raise RuntimeError(f"batch runner exited {code}; see {workdir}/runner.log")
    return setup_s, payload


def batch_outcome(payload: Dict[str, Any], mode: str = "plain") -> Outcome:
    """Fold one mode's campaigns of a RESULT payload and check their stores."""
    from perfbench import checks

    out = Outcome()
    campaigns = [c for c in payload["campaigns"] if c["mode"] == mode]
    out.latencies = [c["latency_s"] for c in campaigns]
    out.wall_s = sum(c["slot_s"] for c in campaigns)
    out.cpu_s = sum(c["cpu_s"] for c in campaigns)
    out.peak_rss_mb = payload["peak_rss_mb"]
    out.worker_peak_rss_mb = payload["worker_peak_rss_mb"]
    out.attempted = len(campaigns)
    out.failed = sum(1 for c in campaigns if not c["ok"])
    digest_rows = []
    for position, c in enumerate(campaigns):
        if not c["ok"] or c["counts"] != {"done": c["tasks"]}:
            out.problems.append(f"campaign {c['index']}: counts {c['counts']}")
        rows = checks.read_store(c["store"])
        if len(rows) != c["stored_tasks"]:
            out.problems.append(f"campaign {c['index']}: {len(rows)} stored "
                                f"outcomes, expected {c['stored_tasks']}")
        bad = checks.incorrect(rows)
        if bad:
            out.problems.append(f"campaign {c['index']}: {len(bad)} incorrect "
                                f"outcome(s), e.g. {bad[0]}")
        if position < DIGEST_JOBS:
            digest_rows.extend(rows)
    out.digest = checks.digest(digest_rows)
    out.counters = {
        "tasks": sum(c["tasks"] for c in campaigns),
        "retries": sum(c["retries"] for c in campaigns),
    }
    out.extra = {"campaigns": campaigns}
    return out


def batch_pass(processes, seed: int, seconds: float, workdir: str,
               setups: int) -> Tuple[List[float], Outcome]:
    """``setups`` fresh runner processes; the last one runs the timed loop."""
    times = []
    for k in range(setups - 1):
        setup_s, _ = run_batch_pass(processes, seed, seconds,
                                    os.path.join(workdir, f"setup{k}"),
                                    setup_only=True)
        times.append(setup_s)
    setup_s, payload = run_batch_pass(processes, seed, seconds,
                                      os.path.join(workdir, "timed"))
    times.append(setup_s)
    return times, batch_outcome(payload)


# -- service workloads ---------------------------------------------------------


def campaign_shape(name: str, options: Dict[str, Any]) -> Tuple[int, int]:
    """(inline tasks, all tasks) of a registry campaign."""
    from repro.serve.registry import default_registry

    campaign = default_registry()[name].build(options)
    return sum(1 for t in campaign.tasks if t.inline), len(campaign.tasks)


def serve_outcome(service, workload, loop, inline: int, total: int,
                  metrics: List[Dict[str, Any]], drops: List[str]) -> Outcome:
    """Fold a finished closed loop and its (stopped) service's store."""
    from perfbench import checks
    from perfbench.serve_loads import WARMUP_JOBS, counter_total

    out = Outcome()
    out.latencies = [s.latency_s for s in loop.samples]
    out.wall_s = loop.wall_s
    out.cpu_s = loop.cpu_s
    out.peak_rss_mb = loop.peak_rss_mb
    out.worker_peak_rss_mb = loop.worker_peak_rss_mb
    out.attempted = len(loop.samples) + loop.jobs_errored
    out.failed = loop.jobs_failed
    out.problems = list(loop.problems)
    out.drops = list(drops)
    rows = checks.read_store(service.store)
    stored = total - inline
    if workload.fabric:
        expected = (WARMUP_JOBS + len(loop.samples)) * stored
        seeds = {s.options["seed"] for s in loop.samples[:DIGEST_JOBS]}
        out.digest = checks.digest(
            rows, keep=lambda spec: spec["kwargs"].get("seed") in seeds
        )
    else:
        expected = stored
        out.digest = checks.digest(rows)
    if len(rows) != expected:
        out.problems.append(f"store holds {len(rows)} outcomes, expected {expected}")
    bad = checks.incorrect(rows)
    if bad:
        out.problems.append(f"{len(bad)} incorrect stored outcome(s), e.g. {bad[0]}")
    out.counters = {
        "http_requests": loop.http_attempted,
        "http_failed": loop.http_failed,
        "tasks": sum(sum(s.view["counts"].values()) for s in loop.samples),
        "retries": counter_total(metrics, "repro_campaign_retries_total"),
        "requeues": counter_total(metrics, "repro_net_tasks_requeued_total"),
    }
    out.extra = {"loop": loop, "rows": rows}
    return out


def serve_pass(processes, name: str, seed: int, seconds: float, workdir: str,
               trace: bool, setups: int) -> Tuple[List[float], Outcome, Any]:
    """``setups`` fresh services; the last one serves the timed loop."""
    from perfbench import serve_loads

    workload = serve_loads.WORKLOADS[name](seed)
    inline, total = campaign_shape(workload.campaign, workload.job(0)[1])
    times = []
    drops: List[str] = []
    service = None
    for k in range(setups):
        service, setup_s = serve_loads.set_up(
            processes, ROOT, os.path.join(workdir, f"setup{k}"), workload,
            sys.executable, trace, drops,
        )
        times.append(setup_s)
        if k < setups - 1:
            service.stop()
    try:
        loop = serve_loads.closed_loop(service, workload, seconds, inline, total)
        metrics = service.final_metrics()
    finally:
        service.stop()
    outcome = serve_outcome(service, workload, loop, inline, total, metrics, drops)
    return times, outcome, service
