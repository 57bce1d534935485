"""The network chaos harness: the TCP fabric vs injected link faults.

Each :class:`NetChaosCase` boots a real fleet — a
:class:`~repro.sched.pool.WorkerPool` listening on a port, remote worker
subprocesses, and (for the fault cases) a
:class:`~repro.sched.net.proxy.ChaosProxy` between them — runs a fixed
point set through it while the case's fault fires, and holds the run to
two invariants:

* **zero lost tasks** — every submitted point resolves ``ok``; a lost
  or partitioned worker's in-flight points requeue and complete
  elsewhere (or on the worker itself after it reconnects);
* **bit-identical results** — each point's outcome dict equals a
  fault-free serial run of the same task function, compared whole.

The shipped cases (:func:`default_net_cases`) cover the failure matrix
of docs/DISTRIBUTED.md:

==============================  =========================================
case                            what it injects
==============================  =========================================
``partition-mid-superstep``     a partition window opens on the first
                                result frame (the frame is lost inside
                                it); the worker is declared lost, its
                                points requeue, and it re-registers
                                after the window heals
``reconnect-after-requeue``     the link is torn on a result frame; the
                                worker redials and the requeued point
                                completes
``split-brain-registration``    a second worker registers mid-run under
                                a live name; the older registration is
                                evicted, its in-flight point requeues
``sigkill-mid-campaign``        one worker is SIGKILLed mid-task
``sigkill-plus-partition``      the acceptance case: a store-backed
                                campaign with one worker SIGKILLed and
                                another partitioned must complete with
                                outcomes bit-identical to serial
==============================  =========================================

Results reuse :class:`~repro.faults.harness.ProbeResult` /
:class:`~repro.faults.harness.ChaosReport`, so
:func:`~repro.faults.harness.render_chaos_report` renders both suites.
``python -m repro chaos --net`` drives this; ``--fault-log`` threads a
JSONL path into every case's proxy, producing the frame-level artifact
the CI ``chaos-net`` job uploads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.faults.harness import ChaosReport, ProbeResult
from repro.faults.net import NetFault, NetFaultPlan
from repro.sched.net.proxy import ChaosProxy
from repro.sched.net.worker import spawn_local_workers
from repro.sched.pool import WorkerPool

__all__ = [
    "NetChaosCase",
    "chaos_point_task",
    "default_net_cases",
    "run_net_chaos_suite",
    "serial_reference",
]

#: Pool timings every case runs with: fast heartbeats so loss detection,
#: requeue, and reconnect all resolve inside a few seconds.
HEARTBEAT_INTERVAL = 0.1
HEARTBEAT_TIMEOUT = 0.75
PARTITION_S = 1.5
TASK_DELAY = 0.25


@dataclass(frozen=True)
class NetChaosCase:
    """One fleet-level chaos scenario.

    ``run(points, fault_log)`` executes the scenario and returns a note
    string (extra facts for the report row); it raises ``AssertionError``
    with a diagnosis when an invariant breaks.
    """

    name: str
    run: Callable[[int, Optional[str]], str]


def chaos_point_task(n: int = 64, delay: float = 0.25) -> Dict[str, Any]:
    """One chaos point: a parity run whose outcome is *fully deterministic*.

    Unlike :func:`~repro.sched.campaigns.demo_task` it carries no
    measured wall times, so the distributed outcome can be compared
    bit-for-bit against a serial run of the same call.  Module-level so
    it pickles across the socket.
    """
    from repro.algorithms.parity import parity_tree
    from repro.core import SQSM, SQSMParams
    from repro.problems import gen_bits, verify_parity

    bits = gen_bits(n, seed=n)
    machine = SQSM(SQSMParams(g=4.0))
    result = parity_tree(machine, bits)
    if delay > 0:
        time.sleep(delay)
    return {
        "measured": float(result.time),  # simulated time: deterministic
        "parity": int(result.value),
        "correct": bool(verify_parity(bits, result.value)),
        "n": n,
    }


def point_kwargs(i: int) -> Dict[str, Any]:
    """Point ``i``'s task kwargs (distinct ``n`` => distinct outcomes)."""
    return {"n": 32 + 16 * i, "delay": TASK_DELAY}


def serial_reference(points: int) -> Dict[str, Dict[str, Any]]:
    """The fault-free truth: every point run inline, no pool, no network."""
    return {f"p{i}": chaos_point_task(**point_kwargs(i)) for i in range(points)}


def _drain_all(
    pool: WorkerPool,
    want: int,
    timeout: float,
    done: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    done = {} if done is None else done
    deadline = time.monotonic() + timeout
    while len(done) < want and time.monotonic() < deadline:
        for event in pool.events(wait=0.2):
            done[event.key] = event
    return done


def _reap(procs: Sequence[Any]) -> None:
    for proc in procs:
        try:
            proc.wait(timeout=5.0)
        except Exception:
            proc.kill()
            try:
                proc.wait(timeout=5.0)
            except Exception:
                pass


def _assert_identical(done: Dict[str, Any], reference: Dict[str, Dict[str, Any]]) -> None:
    lost = sorted(set(reference) - set(done))
    assert not lost, f"lost tasks (never resolved): {lost}"
    bad_status = sorted(k for k, e in done.items() if e.status != "ok")
    assert not bad_status, (
        f"tasks resolved non-ok: "
        f"{[(k, done[k].status, done[k].payload) for k in bad_status]}"
    )
    for key, truth in reference.items():
        got = done[key].payload
        assert got == truth, f"{key}: distributed outcome differs from serial run"


def _assert_fault_log_tail(
    fault_log: Optional[str], case: str, expected: int
) -> None:
    """The frame log's durability invariant: nothing buffered, nothing torn.

    The proxy fsyncs each verdict line before forwarding (or killing)
    the frame it describes, so after a case — however violently it ended
    — the log must hold *every* line the proxy allocated a sequence
    number for, each one complete JSON, in sequence order.  A tail
    swallowed by stdio buffering or a torn last line fails here.
    """
    if not fault_log or expected <= 0:
        return
    rows: List[Dict[str, Any]] = []
    with open(fault_log, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                raise AssertionError(
                    f"{fault_log}:{lineno}: torn/invalid fault-log line"
                )
            if row.get("case") == case:
                rows.append(row)
    assert len(rows) == expected, (
        f"fault log holds {len(rows)} line(s) for {case!r}, "
        f"proxy wrote {expected} — tail lost"
    )
    seqs = [int(r.get("seq", -1)) for r in rows]
    assert seqs == list(range(1, expected + 1)), (
        f"fault-log seq order broken for {case!r}: {seqs}"
    )


def _run_through_proxy(
    points: int,
    fault_log: Optional[str],
    case: str,
    plan: NetFaultPlan,
    workers: int = 3,
    mid_run: Optional[
        Callable[[WorkerPool, List[Any], Dict[str, Any]], str]
    ] = None,
    timeout: float = 30.0,
) -> str:
    """The shared scenario body: pool <- proxy <- ``workers`` workers.

    Submits every point, optionally runs ``mid_run`` once the first
    dispatches have landed, drains to completion, and checks the two
    invariants against :func:`serial_reference`.
    """
    reference = serial_reference(points)
    note = ""
    with WorkerPool(
        jobs=workers,
        port=0,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        heartbeat_timeout=HEARTBEAT_TIMEOUT,
    ) as pool:
        with ChaosProxy(
            pool.address, plan=plan, log_path=fault_log, log_label=case
        ) as proxy:
            procs = spawn_local_workers(
                proxy.address, workers, name_prefix=f"{case}-w",
                connect_timeout=1.0,
            )
            try:
                deadline = time.monotonic() + 10.0
                while len(pool.registry.live()) < workers:
                    pool.events(wait=0.1)
                    if time.monotonic() > deadline:
                        raise AssertionError("workers never registered")
                for i in range(points):
                    pool.submit(f"p{i}", chaos_point_task, point_kwargs(i))
                done: Dict[str, Any] = {}
                for event in pool.events(wait=0.3):  # first dispatches land
                    done[event.key] = event
                if mid_run is not None:
                    # The hook polls the pool itself; completions that
                    # land during it are collected, not swallowed.
                    note = mid_run(pool, procs, done)
                _drain_all(pool, points, timeout, done)
                _assert_identical(done, reference)
                stats = pool.stats
                note = "; ".join(
                    part for part in (
                        note,
                        f"requeues={stats['requeues']}",
                        f"lost={stats['workers_lost']}",
                        f"reconnected={stats['workers_reconnected']}",
                        f"faults_fired={plan.fired}",
                    ) if part
                )
            finally:
                pool.shutdown()
                _reap(procs)
    # The proxy is closed now: its sequence counter is final, so the
    # file must hold exactly that many well-formed lines for this case.
    _assert_fault_log_tail(fault_log, case, proxy.log_lines)
    return note


# -- the shipped cases ------------------------------------------------------


def _case_partition(points: int, fault_log: Optional[str]) -> str:
    # The first c2s result frame trips a partition; the frame itself is
    # inside the window, so a genuinely computed result is lost and its
    # point MUST requeue to survive.
    plan = NetFaultPlan(
        [NetFault("partition", direction="c2s", frame="ok", duration_s=PARTITION_S)],
        label="partition-mid-superstep",
    )
    note = _run_through_proxy(points, fault_log, "partition-mid-superstep", plan)
    assert plan.fired >= 1, "partition never fired"
    return note


def _case_reconnect(points: int, fault_log: Optional[str]) -> str:
    # Tear the link carrying the second result frame: the result is
    # lost, the pool requeues, the worker redials through the proxy.
    plan = NetFaultPlan(
        [NetFault("reconnect", direction="c2s", frame="ok", nth=2)],
        label="reconnect-after-requeue",
    )
    note = _run_through_proxy(points, fault_log, "reconnect-after-requeue", plan)
    assert plan.fired >= 1, "reconnect fault never fired"
    return note


def _case_split_brain(points: int, fault_log: Optional[str]) -> str:
    def usurp(pool: WorkerPool, procs: List[Any], done: Dict[str, Any]) -> str:
        # A second worker claims a live name (connecting straight to the
        # pool — the split is about identity, not the link): the older
        # registration must be evicted and its in-flight point salvaged.
        prefix = "split-brain-registration-w"
        victim = f"{prefix}-0"
        procs.extend(spawn_local_workers(
            pool.address, 1, name_prefix=prefix, connect_timeout=1.0,
        ))
        deadline = time.monotonic() + 10.0
        while True:
            for event in pool.events(wait=0.1):
                done[event.key] = event
            holder = pool.registry.by_name(victim)
            if holder is not None and holder.generation >= 2:
                return f"evicted gen-1 {victim}"
            if time.monotonic() > deadline:
                raise AssertionError("usurper never registered")

    plan = NetFaultPlan(label="split-brain-registration")  # no link faults
    note = _run_through_proxy(
        points, fault_log, "split-brain-registration", plan, mid_run=usurp
    )
    return note


def _case_sigkill(points: int, fault_log: Optional[str]) -> str:
    def kill_one(pool: WorkerPool, procs: List[Any], done: Dict[str, Any]) -> str:
        procs[0].kill()
        return "SIGKILLed 1 worker"

    plan = NetFaultPlan(label="sigkill-mid-campaign")
    return _run_through_proxy(
        points, fault_log, "sigkill-mid-campaign", plan, mid_run=kill_one
    )


def _case_sigkill_plus_partition(points: int, fault_log: Optional[str]) -> str:
    """The acceptance case, store-backed: SIGKILL one worker, partition
    the fabric, and require the campaign's stored outcomes bit-identical
    to a fault-free serial run."""
    import tempfile

    from repro.sched.campaign import Campaign, TaskSpec, run_campaign
    from repro.sched.store import ResultStore

    reference = serial_reference(points)
    # Campaign-level retries on top of the pool's delivery budget: a
    # point unlucky enough to be lost to both the kill and the partition
    # gets re-submitted with a fresh budget, like any crashed task.
    tasks = [
        TaskSpec(f"p{i}", chaos_point_task, point_kwargs(i), retries=2)
        for i in range(points)
    ]
    campaign = Campaign("chaos-net", tasks)
    plan = NetFaultPlan(label="sigkill-plus-partition")
    with tempfile.TemporaryDirectory(prefix="chaos-net-store-") as root:
        store = ResultStore(root)
        with WorkerPool(
            jobs=3,
            port=0,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            heartbeat_timeout=HEARTBEAT_TIMEOUT,
        ) as pool:
            with ChaosProxy(
                pool.address, plan=plan, log_path=fault_log,
                log_label="sigkill-plus-partition",
            ) as proxy:
                procs = spawn_local_workers(
                    proxy.address, 3, name_prefix="accept-w", connect_timeout=1.0,
                )
                try:
                    deadline = time.monotonic() + 10.0
                    while len(pool.registry.live()) < 3:
                        pool.events(wait=0.1)
                        if time.monotonic() > deadline:
                            raise AssertionError("workers never registered")

                    import threading

                    def sabotage() -> None:
                        time.sleep(3 * TASK_DELAY / 2)  # mid-campaign
                        procs[0].kill()
                        proxy.partition(PARTITION_S)

                    saboteur = threading.Thread(target=sabotage, daemon=True)
                    saboteur.start()
                    report = run_campaign(campaign, store, pool=pool)
                    saboteur.join()
                    assert report.ok, f"campaign failed: {report.counts}"
                    for i in range(points):
                        key = store.key_for(chaos_point_task, point_kwargs(i))
                        outcome = store.get_outcome(key)
                        assert outcome is not None, f"p{i} missing from store"
                        assert outcome == reference[f"p{i}"], (
                            f"p{i}: stored outcome differs from serial run"
                        )
                    stats = pool.stats
                    note = (
                        f"store-backed; requeues={stats['requeues']}; "
                        f"lost={stats['workers_lost']}; "
                        f"reconnected={stats['workers_reconnected']}"
                    )
                finally:
                    pool.shutdown()
                    _reap(procs)
    _assert_fault_log_tail(
        fault_log, "sigkill-plus-partition", proxy.log_lines
    )
    return note


def default_net_cases() -> List[NetChaosCase]:
    """The shipped fleet-chaos scenarios, cheapest first."""
    return [
        NetChaosCase("sigkill-mid-campaign", _case_sigkill),
        NetChaosCase("reconnect-after-requeue", _case_reconnect),
        NetChaosCase("split-brain-registration", _case_split_brain),
        NetChaosCase("partition-mid-superstep", _case_partition),
        NetChaosCase("sigkill-plus-partition", _case_sigkill_plus_partition),
    ]


def run_net_chaos_suite(
    points: int = 6,
    fault_log: Optional[str] = None,
    only: Optional[str] = None,
    cases: Optional[Sequence[NetChaosCase]] = None,
) -> ChaosReport:
    """Run every fleet-chaos case; one :class:`ProbeResult` per case.

    ``fault_log`` appends every case's frame-level verdicts (JSONL,
    tagged with the case name) — the CI artifact.  ``only`` filters by
    substring, as in the simulator suite.
    """
    if points < 2:
        raise ValueError(f"net chaos needs points >= 2, got {points}")
    if cases is None:
        cases = default_net_cases()
    if only:
        cases = [c for c in cases if only in c.name]
    report = ChaosReport()
    for case in cases:
        try:
            note = case.run(points, fault_log)
            report.results.append(
                ProbeResult(case=case.name, probe="net-chaos", ok=True, note=note)
            )
        except Exception as exc:
            report.results.append(
                ProbeResult(
                    case=case.name, probe="net-chaos", ok=False,
                    note=f"{type(exc).__name__}: {exc}",
                )
            )
    return report
