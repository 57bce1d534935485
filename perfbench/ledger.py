"""The traced pass (``--trace 1``): per-layer metrics and a layer ledger.

Three ways of measuring, none of which adds a span inside ``src/``:

* *call* — the benchmark times its own calls into a layer's public
  function (``ServeClient.submit`` / ``wait``);
* *span* — the ``repro.trace/1`` spans the program already writes when
  ``REPRO_TRACE=1`` (``request`` → ``job`` → ``task`` → ``exec``), read
  back with ``read_trace_file`` / ``merge_trace_files``;
* *replay* — the benchmark re-issues the workload's own inputs to one
  layer's public function in its own process, after the timed passes:
  ``CampaignEntry.build``, ``encode_frame`` / ``decode_frame``,
  ``ResultStore.put`` / ``get_outcome`` and the task functions.

A run makes an untraced pass and a traced pass of the same workload and
seed (and on ``table1-batch`` a third with ``run_campaign(metrics_path=)``),
so the cost of tracing and of metrics is measured, not assumed.

The ledger splits each job's latency between layers, the way a phase's
cost is split into ``max(w, g·h, L)`` terms, and names the dominant
layer with :func:`repro.obs.records.dominant_of`.  At each instant of a
job span the time goes to the innermost layer at work: the engines while
any task executes on a worker, dispatch (pool or fabric) while tasks are
in flight but none executes, and the scheduler while none is in flight.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Per-layer metric -> (unit, layer, how it is measured).
METRICS: Dict[str, Tuple[str, str, str]] = {
    "serve.submit_p50_s": ("s", "repro.serve http/contracts/registry", "call ServeClient.submit"),
    "serve.wait_p50_s": ("s", "repro.serve sse/http", "call ServeClient.wait"),
    "serve.request_self_p50_s": ("s", "repro.serve.http", "span request self time"),
    "serve.build_p50_s": ("s", "repro.serve.registry", "replay CampaignEntry.build"),
    "serve.cpu_ms_per_job": ("ms", "repro.serve.service loop", "/proc, workers excluded"),
    "sched.tenancy.admit_p50_s": ("s", "repro.sched.tenancy", "job view started - created"),
    "sched.tenancy.job_self_p50_s": ("s", "repro.sched.tenancy", "span job minus its tasks"),
    "sched.tenancy.queue_wait_p50_s": ("s", "repro.sched.tenancy + pool", "span exec start - task start"),
    "sched.tenancy.cached_ratio": ("ratio", "repro.sched.tenancy dedup", "cached / stored tasks"),
    "sched.campaign.worker_util": ("ratio", "repro.sched.campaign", "sum exec / (2 x job spans)"),
    "sched.campaign.retries": ("count", "repro.sched.campaign", "sum(attempts - 1)"),
    "sched.pool.dispatch_p50_s": ("s", "repro.sched.pool", "span task - exec, pipe"),
    "sched.pool.workers_spawned": ("count", "repro.sched.pool", "pool stats / live pipe workers"),
    "sched.net.dispatch_p50_s": ("s", "repro.sched.net", "span task - exec, tcp"),
    "sched.net.frame_bytes_p50": ("bytes", "repro.sched.net.frames", "replay encode_frame"),
    "sched.net.codec_p50_s": ("s", "repro.sched.net.frames", "replay encode+decode_frame"),
    "sched.store.put_p50_s": ("s", "repro.sched.store", "replay ResultStore.put"),
    "sched.store.get_p50_s": ("s", "repro.sched.store", "replay ResultStore.get_outcome"),
    "sched.store.entry_bytes_p50": ("bytes", "repro.sched.store", "stored entry size"),
    "engines.exec_p50_s": ("s", "core/models/algorithms/faults", "span exec"),
    "engines.exec_sum_s": ("s", "core/models/algorithms/faults", "span exec, summed per job"),
    "engines.task_p50_s": ("s", "core/models/algorithms/faults", "replay task function"),
    "worker.peak_rss_mb": ("MB", "pool/net workers", "max worker VmHWM"),
    "obs.trace_overhead": ("ratio", "repro.obs.tracing", "traced / untraced job_p50_s - 1"),
    "obs.metrics_overhead": ("ratio", "repro.obs.metrics", "jobs_per_s off / on - 1"),
}

UNITS = {name: unit for name, (unit, _, _) in METRICS.items()}


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanTree:
    """The finished spans of the timed jobs, indexed by parent."""

    def __init__(self, rows: List[Dict[str, Any]], trace_ids: Iterable[str]) -> None:
        keep = set(trace_ids)
        self.rows = [r for r in rows
                     if r.get("trace_id") in keep and r.get("end") is not None]
        self.children: Dict[str, List[Dict[str, Any]]] = {}
        for row in self.rows:
            self.children.setdefault(row.get("parent_span_id") or "", []).append(row)

    def kind(self, kind: str) -> List[Dict[str, Any]]:
        return [r for r in self.rows if r["kind"] == kind]

    def kids(self, span: Dict[str, Any], kind: str) -> List[Dict[str, Any]]:
        return [r for r in self.children.get(span["span_id"], ()) if r["kind"] == kind]

    @staticmethod
    def duration(span: Dict[str, Any]) -> float:
        return max(0.0, float(span["end"]) - float(span["start"]))

    def self_time(self, span: Dict[str, Any], kind: str) -> float:
        kids = [(float(k["start"]), float(k["end"])) for k in self.kids(span, kind)]
        return self.duration(span) - union_length(
            kids, float(span["start"]), float(span["end"])
        )


def _timed(fn, *args, **kwargs) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t0, value


def replay(tasks, rows, scratch: str, frames: bool) -> Dict[str, float]:
    """Re-issue one job's task inputs and outcomes to frames, store and engines."""
    from repro.sched.net.frames import decode_frame, encode_frame
    from repro.sched.store import ResultStore

    stored = {key: (spec, outcome) for key, spec, outcome in rows}
    store = ResultStore(scratch)
    frame_bytes: List[float] = []
    codec: List[float] = []
    puts: List[float] = []
    gets: List[float] = []
    runs: List[float] = []
    for task in tasks:
        key = store.key_for(task.fn, task.kwargs)
        if key not in stored:
            continue  # inline tasks are never stored
        spec, outcome = stored[key]
        if frames:
            for frame in (("task", key, task.fn, dict(task.kwargs)),
                          ("ok", key, outcome, 0.001)):
                seconds, wire = _timed(encode_frame, frame)
                frame_bytes.append(float(len(wire)))
                seconds += _timed(decode_frame, wire[4:])[0]
                codec.append(seconds)
        puts.append(_timed(store.put, key, outcome, spec)[0])
        gets.append(_timed(store.get_outcome, key)[0])
        runs.append(_timed(task.fn, **task.kwargs)[0])
    return {
        "sched.net.frame_bytes_p50": p50(frame_bytes),
        "sched.net.codec_p50_s": p50(codec),
        "sched.store.put_p50_s": p50(puts),
        "sched.store.get_p50_s": p50(gets),
        "engines.task_p50_s": p50(runs),
    }


def entry_bytes(store_root: str, rows) -> float:
    from repro.sched.store import ResultStore

    store = ResultStore(store_root)
    return p50([float(os.path.getsize(store.path_for(key))) for key, _, _ in rows])


def span_metrics(tree: SpanTree, jobs: int) -> Dict[str, Any]:
    """Job, task and exec figures from the span tree.

    Each job span's wall time is split three ways: while any of its
    tasks executes on a worker (``exec_wall``), while tasks are in flight
    but none executes (``dispatch_wall``: queued, framed, in transit,
    being recorded), and while no task is in flight (``self_wall``).
    Inline tasks run on the scheduler thread, so they count as its time.
    """
    pipe, tcp, queue_wait = [], [], []
    retries = 0
    for task in tree.kind("task"):
        retries += max(0, int(task.get("attrs", {}).get("attempts", 1)) - 1)
        execs = tree.kids(task, "exec")
        if not execs:
            continue
        first = min(execs, key=lambda e: float(e["start"]))
        queue_wait.append(float(first["start"]) - float(task["start"]))
        gap = tree.duration(task) - sum(tree.duration(e) for e in execs)
        transport = first.get("attrs", {}).get("transport")
        (tcp if transport == "tcp" else pipe).append(gap)
    durations, self_wall, dispatch_wall, exec_wall = [], 0.0, 0.0, 0.0
    for job in tree.kind("job"):
        lo, hi = float(job["start"]), float(job["end"])
        tasks = [t for t in tree.kids(job, "task")
                 if not t.get("attrs", {}).get("inline")]
        execs = [e for t in tasks for e in tree.kids(t, "exec")]
        busy = union_length([(float(x["start"]), float(x["end"]))
                             for x in tasks + execs], lo, hi)
        running = union_length([(float(e["start"]), float(e["end"]))
                                for e in execs], lo, hi)
        durations.append(hi - lo)
        self_wall += (hi - lo) - busy
        dispatch_wall += busy - running
        exec_wall += running
    exec_durations = [tree.duration(e) for e in tree.kind("exec")]
    job_total = sum(durations)
    return {
        "job_durations": durations,
        "job_self": [tree.self_time(j, "task") for j in tree.kind("job")],
        "request_self": [tree.self_time(r, "job") for r in tree.kind("request")],
        "queue_wait": queue_wait,
        "pipe_dispatch": pipe,
        "tcp_dispatch": tcp,
        "self_wall": self_wall,
        "dispatch_wall": dispatch_wall,
        "exec_wall": exec_wall,
        "exec": exec_durations,
        "exec_sum": sum(exec_durations),
        "retries": retries,
        "worker_util": sum(exec_durations) / (2.0 * job_total) if job_total else 0.0,
        "jobs": jobs,
    }


def build_ledger(s: Dict[str, Any], values: Dict[str, float], latency: List[float],
                 hits: float, serve: bool) -> Dict[str, float]:
    """Mean job latency split by layer; the parts sum to the mean.

    Time outside the job span is the client's, HTTP's and SSE's on the
    service (less the replayed cost of the registry build and of ``hits``
    store reads that the request makes before the job span opens), and
    campaign set-up on ``table1-batch``.
    """
    jobs = max(1, s["jobs"])
    outside = (sum(latency) - sum(s["job_durations"])) / jobs
    reads = hits * values["sched.store.get_p50_s"]
    dispatch = s["dispatch_wall"] / jobs
    ledger = {"engines": s["exec_wall"] / jobs}
    if serve:
        build = values["serve.build_p50_s"]
        ledger["repro.serve"] = max(0.0, outside - reads - build)
        ledger["serve.registry"] = build
        ledger["sched.store"] = reads
        ledger["sched.tenancy"] = s["self_wall"] / jobs
        ledger["sched.net" if s["tcp_dispatch"] else "sched.pool"] = dispatch
    else:
        ledger["sched.campaign"] = outside + s["self_wall"] / jobs
        ledger["sched.pool"] = dispatch
    return ledger


@dataclass
class Passes:
    """What the untraced and traced passes of one workload hand the ledger."""

    base: Any                       # untraced Outcome
    out: Any                        # traced Outcome
    spans: List[Dict[str, Any]]     # merged repro.trace/1 rows
    trace_ids: List[str]            # one per timed job
    store_root: str
    rows: List[Any]                 # (key, spec, outcome) in that store
    tasks: List[Any]                # one job's tasks, for replay
    frames: bool                    # tasks travel in frames to workers
    hits: float                     # store reads that hit, per job
    values: Dict[str, float]        # per-layer metrics known at this point


def _serve_passes(name: str, seed: int, seconds: float, workdir: str,
                  processes) -> Passes:
    from repro.obs.tracing import merge_trace_files
    from repro.serve.registry import default_registry

    from perfbench import passes

    _, base, _ = passes.serve_pass(processes, name, seed, seconds,
                                   os.path.join(workdir, "untraced"), False, 1)
    _, out, service = passes.serve_pass(processes, name, seed, seconds,
                                        os.path.join(workdir, "traced"), True, 1)
    loop = out.extra["loop"]
    samples = loop.samples
    views = [s.view for s in samples]
    rows = out.extra["rows"]
    entry = default_registry()[service.workload.campaign]
    tasks = entry.build(samples[0].options).tasks
    stored = sum(1 for t in tasks if not t.inline)
    cached = sum(v["counts"].get("cached", 0) for v in views)
    jobs = max(1, len(samples))
    return Passes(
        base, out, merge_trace_files(service.span_files),
        [v["trace_id"] for v in views], service.store, rows, tasks,
        service.workload.fabric,
        # Resume-pass reads that hit; a miss is one os.path.exists().
        cached / jobs,
        {
            "serve.submit_p50_s": p50([s.submit_s for s in samples]),
            "serve.wait_p50_s": p50([s.wait_s for s in samples]),
            "serve.build_p50_s": p50([_timed(entry.build, s.options)[0]
                                      for s in samples[:50]]),
            "serve.cpu_ms_per_job": 1000.0 * loop.service_cpu_s / jobs,
            "sched.tenancy.admit_p50_s": p50([v["started"] - v["created"]
                                              for v in views]),
            "sched.tenancy.cached_ratio": cached / max(1, stored * len(views)),
            "sched.pool.workers_spawned": float(loop.pipe_workers),
        },
    )


def _batch_passes(seed: int, seconds: float, workdir: str, processes) -> Passes:
    from repro.obs.tracing import merge_trace_files
    from repro.sched.campaigns import table1_campaign

    from perfbench import checks, passes

    span_file = os.path.join(workdir, "spans-runner.jsonl")
    _, payload = passes.run_batch_pass(processes, seed, 3 * seconds, workdir,
                                       modes="plain,traced,metrics",
                                       trace_file=span_file)
    base = passes.batch_outcome(payload, "plain")
    out = passes.batch_outcome(payload, "traced")
    metered = passes.batch_outcome(payload, "metrics")
    out.problems += [f"metrics campaigns: {p}" for p in metered.problems]
    out.failed += metered.failed
    out.attempted += metered.attempted
    campaigns = out.extra["campaigns"]
    first = campaigns[0]
    rows = checks.read_store(first["store"])
    on = metered.end_to_end(0.0)["jobs_per_s"]
    return Passes(
        base, out, merge_trace_files([span_file]),
        [c["trace_id"] for c in campaigns], first["store"], rows,
        table1_campaign(ns=first["ns"]).tasks, True, 0.0,
        {
            "sched.pool.workers_spawned": float(sum(
                c["pool_stats"].get("workers_spawned", 0) for c in campaigns
            )),
            "obs.metrics_overhead": (base.end_to_end(0.0)["jobs_per_s"] / on - 1.0
                                     if on else 0.0),
        },
    )


def traced(name: str, seed: int, seconds: float, workdir: str, processes):
    """Run the untraced and traced passes; return (outcome, per-layer values)."""
    from repro.obs.records import dominant_of

    serve = name != "table1-batch"
    if serve:
        run = _serve_passes(name, seed, seconds, workdir, processes)
    else:
        run = _batch_passes(seed, seconds, workdir, processes)
    base, out = run.base, run.out
    out.problems += [f"untraced pass: {p}" for p in base.problems]
    out.drops += [f"untraced pass: {d}" for d in base.drops]
    out.failed += base.failed
    out.attempted += base.attempted

    tree = SpanTree(run.spans, [t for t in run.trace_ids if t])
    s = span_metrics(tree, out.jobs)
    if serve:
        # run_campaign reports retries itself; the service only in spans.
        out.counters["retries"] = s["retries"]
    values = {metric: 0.0 for metric in METRICS}
    values.update(run.values)
    values.update({
        "serve.request_self_p50_s": p50(s["request_self"]),
        "sched.tenancy.job_self_p50_s": p50(s["job_self"]) if serve else 0.0,
        "sched.tenancy.queue_wait_p50_s": p50(s["queue_wait"]) if serve else 0.0,
        "sched.campaign.worker_util": s["worker_util"],
        "sched.campaign.retries": float(out.counters.get("retries", 0)),
        "sched.pool.dispatch_p50_s": p50(s["pipe_dispatch"]),
        "sched.net.dispatch_p50_s": p50(s["tcp_dispatch"]),
        "engines.exec_p50_s": p50(s["exec"]),
        "engines.exec_sum_s": s["exec_sum"] / max(1, out.jobs),
        "worker.peak_rss_mb": out.worker_peak_rss_mb,
        "sched.store.entry_bytes_p50": entry_bytes(run.store_root, run.rows),
    })
    base_p50 = base.end_to_end(0.0)["job_p50_s"]
    values["obs.trace_overhead"] = (
        out.end_to_end(0.0)["job_p50_s"] / base_p50 - 1.0 if base_p50 else 0.0
    )
    values.update(replay(run.tasks, run.rows,
                         os.path.join(workdir, "replay-store"), run.frames))

    ledger = build_ledger(s, values, out.latencies, run.hits, serve)
    total = sum(ledger.values()) or 1.0
    shares = {layer: busy / total for layer, busy in ledger.items()}
    print_table(out, base, values, ledger, shares, dominant_of(shares),
                len(tree.rows))
    return out, values


def print_table(out, base, values, ledger, shares, dominant, spans) -> None:
    print(f"traced pass: {out.jobs} jobs ({base.jobs} untraced), {spans} spans")
    print(f"output digest: {out.digest} (untraced pass: {base.digest})")
    print("counts: " + " ".join(f"{k}={v:g}" for k, v in out.counters.items()))
    print(f"{'metric':32s} {'value':>12s} {'unit':6s} {'layer':36s} measured by")
    for metric, (unit, layer, how) in METRICS.items():
        print(f"{metric:32s} {values[metric]:12.6g} {unit:6s} {layer:36s} {how}")
    print(f"{'ledger layer':32s} {'s of job':>12s} share")
    for layer, busy in sorted(ledger.items(), key=lambda kv: -kv[1]):
        print(f"{layer:32s} {busy:12.6g} {shares[layer]:6.1%}")
    print(f"dominant_layer: {dominant}")
