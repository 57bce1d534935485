"""The two service workloads: ``chaos-fabric`` and ``table1-cached``.

Both run the shipped service as a separate process (``python -m repro
serve run``) and drive it with one closed-loop client: submit a job,
wait on its SSE stream for the terminal event, check it, submit the
next.  The client is :class:`repro.serve.client.ServeClient`, so the
benchmark sees exactly what ``serve submit --watch`` sees.

* ``chaos-fabric`` boots the service on the TCP worker fabric
  (``--workers-port 0``) and joins two ``python -m repro worker``
  processes over loopback.  Every job is a ``chaos`` campaign whose
  ``seed`` option is drawn from the workload seed and never repeats, so
  every task is fresh work.
* ``table1-cached`` boots the default service (pipe pool,
  ``REPRO_JOBS=2``).  Set-up submits stock ``table1`` once, which fills
  the store; every timed job resubmits ``table1`` under a seeded tenant
  name and is served entirely from the store.

A request whose connection drops before its reply is read (about one in
10^4 jobs, on loopback) is made once more and reported; see
:meth:`Service.again`.  The job then counts as done only if its terminal
view and stored outcomes pass every check.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import urlopen

from perfbench import procs

#: Service boot, worker registration and warm-up must finish in this time.
BOOT_TIMEOUT = 90.0

#: Jobs submitted during set-up, after the service is ready, to load
#: lazily imported code paths before anything is timed.
WARMUP_JOBS = 2


@dataclass
class JobSample:
    """One closed-loop job as the client saw it."""

    options: Dict[str, Any]
    submit_s: float
    wait_s: float
    latency_s: float
    view: Dict[str, Any]


@dataclass
class LoopResult:
    """A timed closed loop: samples plus the process-level readings."""

    samples: List[JobSample] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    service_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    worker_peak_rss_mb: float = 0.0
    pipe_workers: int = 0
    http_attempted: int = 0
    http_failed: int = 0
    #: Jobs whose requests failed even when made again.
    jobs_errored: int = 0
    jobs_failed: int = 0
    problems: List[str] = field(default_factory=list)


class ServeWorkload:
    """What differs between the two service workloads."""

    name = ""
    fabric = False
    campaign = ""
    #: Client pause between one job's terminal event and the next submit.
    think_s = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def job(self, index: int) -> Tuple[str, Dict[str, Any]]:
        """``(tenant, options)`` of timed job ``index`` (negative: warm-up)."""
        raise NotImplementedError

    def prefill(self, service: "Service") -> None:
        """Work done once per service before the warm-up jobs."""

    def expected_counts(self, inline: int, total: int) -> Dict[str, int]:
        raise NotImplementedError


class ChaosFabric(ServeWorkload):
    name = "chaos-fabric"
    fabric = True
    campaign = "chaos"
    # The fabric service's scheduler thread polls workers for up to 0.2 s
    # and a submit does not wake it, so a job waits for the rest of that
    # poll.  A client that resubmits within a few ms can instead land
    # before the scheduler re-enters the poll, and which of the two
    # happens sticks for a whole run.  A 50 ms pause, shorter than a
    # ``serve submit --watch`` process start, lands every submit inside
    # the poll, so every job shows the wait.
    think_s = 0.05

    def job(self, index: int) -> Tuple[str, Dict[str, Any]]:
        # Seeds are unique per (workload seed, job index), warm-ups
        # included, so no task is ever served from the store.
        return "bench", {"seed": self.seed * 1_000_000 + 500_000 + index}

    def expected_counts(self, inline: int, total: int) -> Dict[str, int]:
        return {"done": total}


class Table1Cached(ServeWorkload):
    name = "table1-cached"
    campaign = "table1"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.tenants = [f"tenant-{rng.randrange(16 ** 6):06x}" for _ in range(4)]

    def job(self, index: int) -> Tuple[str, Dict[str, Any]]:
        return self.tenants[index % len(self.tenants)], {}

    def prefill(self, service: "Service") -> None:
        _, _, final = service.run_job("prefill", {})
        if final["state"] != "done" or set(final["counts"]) != {"done"}:
            raise RuntimeError(f"table1 prefill did not finish fresh: {final}")

    def expected_counts(self, inline: int, total: int) -> Dict[str, int]:
        return {"cached": total - inline, "done": inline}


WORKLOADS = {cls.name: cls for cls in (ChaosFabric, Table1Cached)}


def dropped(exc: BaseException) -> bool:
    """True when a request's connection broke before its reply was read."""
    if isinstance(exc, URLError) and not isinstance(exc, HTTPError):
        exc = exc.reason  # urllib wraps errors raised while sending
    return isinstance(exc, ConnectionError)


class Service:
    """One ``python -m repro serve run`` (plus two workers on the fabric)."""

    def __init__(self, processes: procs.Processes, root: str, workdir: str,
                 workload: ServeWorkload, python: str, trace: bool,
                 drops: Optional[List[str]] = None) -> None:
        self.processes = processes
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.python = python
        self.trace = trace
        self.proc = None
        self.workers: List[Any] = []
        self.url = ""
        #: HTTP requests made, repeats included.
        self.requests = 0
        #: Requests whose connection dropped and that were made again.
        self.drops: List[str] = [] if drops is None else drops
        #: Ids of every job this benchmark has seen the service admit.
        self.known_jobs: Set[str] = set()
        os.makedirs(workdir, exist_ok=True)

    def _env(self, span_file: str) -> Dict[str, str]:
        return procs.base_env(
            self.root, os.path.join(self.workdir, span_file) if self.trace else None
        )

    @property
    def span_files(self) -> List[str]:
        return [os.path.join(self.workdir, name)
                for name in sorted(os.listdir(self.workdir))
                if name.startswith("spans-")]

    @property
    def store(self) -> str:
        return os.path.join(self.workdir, "store")

    def client(self, tenant: str):
        from repro.serve.client import ServeClient

        return ServeClient(self.url, tenant=tenant, timeout=BOOT_TIMEOUT)

    def boot(self) -> None:
        """Start the service (and workers) and wait until it can take jobs."""
        log = os.path.join(self.workdir, "service.log")
        argv = [self.python, "-m", "repro", "serve", "run", "--port", "0",
                "--store", self.store, "--quiet"]
        if self.workload.fabric:
            argv += ["--workers-port", "0"]
        self.proc = self.processes.spawn(
            argv, self._env("spans-service.jsonl"), self.root, log
        )
        line = procs.wait_for_line(log, "serving on ", self.proc, BOOT_TIMEOUT)
        self.url = line.split()[2]
        if self.workload.fabric:
            line = procs.wait_for_line(log, "worker fabric on ", self.proc,
                                       BOOT_TIMEOUT)
            host, port = line.split()[3].rsplit(":", 1)
            for i in (1, 2):
                self.workers.append(self.processes.spawn(
                    [self.python, "-m", "repro", "worker", host, port,
                     "--name", f"bench-w{i}"],
                    self._env(f"spans-worker{i}.jsonl"), self.root,
                    os.path.join(self.workdir, f"worker{i}.log"),
                ))
            client = self.client("setup")
            deadline = time.monotonic() + BOOT_TIMEOUT
            while self.again("workers", client.workers)["live"] < 2:
                if time.monotonic() > deadline:
                    raise RuntimeError("workers did not register in time")
                time.sleep(0.01)

    def again(self, what: str, call: Callable[[], Any]) -> Any:
        """``call()``, an idempotent request, made once more if it drops.

        The drop is recorded in :attr:`drops`, which the run prints; a
        second drop of the same request propagates.
        """
        self.requests += 1
        try:
            return call()
        except OSError as exc:
            if not dropped(exc):
                raise
            self.drops.append(f"{what}: {type(exc).__name__}: {exc}")
        self.requests += 1
        return call()

    def submit(self, tenant: str, options: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs``; after a drop, adopt the job or submit again.

        A submit is not idempotent: the service may have admitted the job
        before the connection dropped.  If so, the tenant's job list holds
        one job this benchmark has not seen, and that job is the one.
        """
        client = self.client(tenant)

        def post() -> Dict[str, Any]:
            self.requests += 1
            return client.submit(self.workload.campaign, options)

        try:
            job = post()
        except OSError as exc:
            if not dropped(exc):
                raise
            self.drops.append(f"submit: {type(exc).__name__}: {exc}")
            unseen = [j for j in self.again("list jobs", client.jobs)
                      if j["id"] not in self.known_jobs]
            if len(unseen) > 1:
                raise RuntimeError(f"{len(unseen)} unseen jobs after a dropped "
                                   f"submit: {[j['id'] for j in unseen]}")
            job = unseen[0] if unseen else post()
        self.known_jobs.add(job["id"])
        return job

    def run_job(self, tenant: str, options: Dict[str, Any]
                ) -> Tuple[float, float, Dict[str, Any]]:
        """Submit one job and wait on its SSE stream for the terminal view.

        Returns (submit seconds, wait seconds, terminal job view).
        """
        client = self.client(tenant)
        t0 = time.perf_counter()
        job = self.submit(tenant, options)
        t1 = time.perf_counter()
        final = self.again(f"wait {job['id']}",
                           lambda: client.wait(job["id"], timeout=BOOT_TIMEOUT))
        return t1 - t0, time.perf_counter() - t1, final

    def worker_pids(self) -> List[int]:
        """Fabric workers, or the service's live pipe workers."""
        if self.workers:
            return [w.pid for w in self.workers]
        return procs.children_of(self.proc.pid)

    def cpu_seconds(self) -> float:
        """Service plus every worker, reaped ones included."""
        extra = [w.pid for w in self.workers]
        return procs.tree_cpu_seconds(self.proc.pid, extra)

    def final_metrics(self) -> List[Dict[str, Any]]:
        """The next ``repro.metrics/1`` snapshot on ``GET /v1/events``."""
        from repro.serve.sse import iter_sse

        def read() -> List[Dict[str, Any]]:
            with urlopen(self.url + "/v1/events", timeout=10.0) as resp:
                def chunks():
                    while True:
                        block = resp.read1(4096)
                        if not block:
                            return
                        yield block.decode("utf-8", errors="replace")
                for event in iter_sse(chunks()):
                    if event["event"] == "snapshot":
                        return json.loads(event["data"])["metrics"]
            return []

        return self.again("events", read)

    def stop(self) -> None:
        """SIGINT the service (its clean path), then reap the workers."""
        if self.proc is not None:
            self.processes.stop(self.proc)
        for worker in self.workers:
            # The service's stop() sends every fabric worker ``stop``.
            self.processes.wait(worker, grace=15.0)


def counter_total(metrics: List[Dict[str, Any]], name: str) -> float:
    """Sum of every labelled sample of counter ``name`` in a snapshot."""
    return sum(
        float(sample["value"])
        for family in metrics if family.get("name") == name
        for sample in family.get("samples", ())
    )


def set_up(processes: procs.Processes, root: str, workdir: str,
           workload: ServeWorkload, python: str, trace: bool,
           drops: List[str]) -> Tuple[Service, float]:
    """Boot, prefill and warm up one service; returns it and set-up seconds.

    Requests that drop and are made again go into ``drops``.
    """
    t0 = time.perf_counter()
    service = Service(processes, root, workdir, workload, python, trace, drops)
    try:
        service.boot()
        workload.prefill(service)
        for k in range(WARMUP_JOBS):
            _, _, final = service.run_job(*workload.job(-1 - k))
            if final["state"] != "done":
                raise RuntimeError(f"warm-up job ended {final['state']}: {final}")
    except BaseException:
        service.stop()
        raise
    return service, time.perf_counter() - t0


def closed_loop(service: Service, workload: ServeWorkload, seconds: float,
                inline: int, total: int) -> LoopResult:
    """One client, one job at a time, for ``seconds`` of wall time."""
    from repro.serve.client import ServeError

    expected = workload.expected_counts(inline, total)
    out = LoopResult()
    requests0, drops0 = service.requests, len(service.drops)
    cpu0 = service.cpu_seconds()
    svc0 = procs.cpu_seconds(service.proc.pid, reaped_children=False)
    t_start = time.perf_counter()
    t_last = t_start
    for index in itertools.count():
        if time.perf_counter() - t_start >= seconds:
            break
        if index and workload.think_s:
            time.sleep(workload.think_s)
        tenant, options = workload.job(index)
        try:
            submit_s, wait_s, final = service.run_job(tenant, options)
        except (ServeError, OSError, ValueError, RuntimeError) as exc:
            out.http_failed += 1
            out.jobs_errored += 1
            out.jobs_failed += 1
            out.problems.append(f"job {index}: {type(exc).__name__}: {exc}")
            continue
        t_last = time.perf_counter()
        out.samples.append(
            JobSample(options, submit_s, wait_s, submit_s + wait_s, final)
        )
        if final["state"] != "done" or final["counts"] != expected:
            out.jobs_failed += 1
            out.problems.append(
                f"job {final['id']}: state {final['state']} counts "
                f"{final['counts']} (expected done with {expected})"
            )
    out.wall_s = t_last - t_start
    out.http_attempted = service.requests - requests0
    out.http_failed += len(service.drops) - drops0
    out.cpu_s = service.cpu_seconds() - cpu0
    out.service_cpu_s = (
        procs.cpu_seconds(service.proc.pid, reaped_children=False) - svc0
    )
    out.peak_rss_mb = procs.vm_hwm_mb(service.proc.pid)
    out.worker_peak_rss_mb = max(
        [procs.vm_hwm_mb(pid) for pid in service.worker_pids()] or [0.0]
    )
    out.pipe_workers = len(procs.children_of(service.proc.pid))
    return out
