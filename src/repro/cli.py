"""Command-line entry point: regenerate the paper's tables.

``python -m repro`` runs every experiment of DESIGN.md's index (the four
Table 1 sub-tables, the Section 8 upper-bound tracking table, the
lower-bound machinery demonstrations and the ablations) and prints the
combined report.  ``python -m repro t1a`` (etc.) runs a single experiment.
The run exits 1 when a Table 1 cell's verdict is ``WRONG-ANSWER`` or
``VIOLATION(...)``.

``--jobs N`` sets the worker-process count used by every
:func:`repro.analysis.parallel_sweep.parallel_sweep` call in the run (it
exports ``REPRO_JOBS``); ``--jobs 1`` forces serial execution.

``python -m repro trace`` is not an experiment: it runs one algorithm on a
cost-recording machine, prints the per-phase cost breakdown and the
dominant-term summary, and (with ``--export chrome|jsonl``) writes the
phase cost records to a Chrome trace-event file (load it at
https://ui.perfetto.dev) or a JSONL event stream.  See
docs/OBSERVABILITY.md.

``python -m repro chaos`` is the robustness gate: every Section 8
algorithm under every winner policy, an adversarial winner search, and the
shipped fault schedules, plus the fault-tolerant sweep-runner demo.  See
docs/ROBUSTNESS.md.

``python -m repro campaign run|resume|status|prune|list`` drives the
campaign scheduler (:mod:`repro.sched`): declarative task DAGs executed on
a warm worker pool with outcomes persisted to a content-addressed result
store, so a killed campaign resumes from what it already computed.  See
docs/SCHEDULER.md.

``python -m repro metrics dump`` prints the process-wide runtime metrics
registry (:mod:`repro.obs.metrics`) as a table — or the last snapshot of
a ``--metrics`` JSONL stream; ``python -m repro campaign run --metrics``
streams those snapshots while a campaign runs and ``python -m repro
campaign status --follow`` tails them as live progress.  ``python -m
repro bench check`` is the bench-regression watchdog: it diffs current
``BENCH_*.json`` (or result-store) points against a committed baseline
with noise-aware thresholds and exits nonzero on regression.  See
docs/OBSERVABILITY.md.

``python -m repro version`` (or ``--version``) prints the package version
— the same string that salts every result-store content key.

This is the same code path the pytest benches assert on; the CLI just
prints without asserting, so it is the cheapest way to regenerate
EXPERIMENTS.md's numbers.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "main",
    "EXPERIMENTS",
    "parse_jobs",
    "run_trace",
    "run_chaos",
    "run_campaign_cli",
    "run_metrics",
    "run_bench",
    "run_version",
]


def _t1a() -> Dict[Tuple[str, str], str]:
    from benchmarks.bench_table1_qsm_time import main

    return main()


def _t1b() -> Dict[Tuple[str, str], str]:
    from benchmarks.bench_table1_sqsm_time import main

    return main()


def _t1c() -> Dict[Tuple[str, str], str]:
    from benchmarks.bench_table1_bsp_time import main

    return main()


def _t1d() -> Dict[Tuple[str, str], str]:
    from benchmarks.bench_table1_rounds import main

    return main()


def _s8() -> None:
    from benchmarks.bench_s8_upper_bounds import main

    main()


def _lb() -> None:
    from benchmarks.bench_lb_machinery import main

    main()


def _abl() -> None:
    from benchmarks.bench_ablations import main

    main()


def _rel() -> None:
    from benchmarks.bench_related_problems import main

    main()


def _perf() -> None:
    from benchmarks.bench_phase_engine import main

    main()


def _sched() -> None:
    from benchmarks.bench_sched import main

    main()


def _xmodel() -> None:
    from benchmarks.bench_cross_model import main

    main()


#: Experiment name -> runner.  The Table 1 runners return their cell
#: verdicts, and ``main`` exits 1 when one says WRONG-ANSWER or VIOLATION.
EXPERIMENTS: Dict[str, Callable[[], Optional[Dict[Tuple[str, str], str]]]] = {
    "t1a": _t1a,
    "t1b": _t1b,
    "t1c": _t1c,
    "t1d": _t1d,
    "s8": _s8,
    "rel": _rel,
    "lb": _lb,
    "abl": _abl,
    "perf": _perf,
    "sched": _sched,
    "xmodel": _xmodel,
}


def _run_trace_merge(argv: List[str]) -> int:
    """``python -m repro trace merge``: fold span files into one Perfetto view.

    Reads one or more ``repro.trace/1`` JSONL files (the scheduler's sink
    plus any per-worker ``REPRO_TRACE_PATH`` files from other hosts),
    deduplicates spans by ``(trace_id, span_id)``, and writes a single
    trace-event JSON whose flow arrows link each request span down
    through job, task, and exec rows.  Also prints the percentile SLO
    summary computed over the merged spans.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="python -m repro trace merge",
        description=(
            "Merge repro.trace/1 span files (scheduler + workers, any "
            "number of hosts) into one Perfetto-loadable trace with flow "
            "links, and print the percentile SLO summary."
        ),
    )
    parser.add_argument(
        "files", nargs="+", metavar="SPANS.jsonl",
        help="repro.trace/1 files to merge (later duplicates are dropped)",
    )
    parser.add_argument(
        "--out", default="trace-merged.json", metavar="PATH",
        help="output trace-event JSON (default: trace-merged.json)",
    )
    parser.add_argument(
        "--slo-json", default=None, metavar="PATH",
        help="also write the SLO summary as JSON",
    )
    args = parser.parse_args(argv)

    from repro.obs.exporters import write_combined_trace
    from repro.obs.tracing import merge_trace_files, slo_summary

    spans = merge_trace_files(args.files)
    if not spans:
        print("error: no repro.trace/1 spans found in "
              + ", ".join(args.files), file=sys.stderr)
        return 1
    count = write_combined_trace(args.out, trace_spans=spans)
    traces = sorted({s.get("trace_id") for s in spans})
    hosts = sorted({s.get("host") for s in spans if s.get("host")})
    print(f"merged {len(spans)} span(s) across {len(traces)} trace(s) "
          f"from {len(args.files)} file(s)"
          + (f" ({', '.join(hosts)})" if hosts else ""))
    print(f"wrote {count} trace events to {args.out} "
          "(load at https://ui.perfetto.dev)")
    summary = slo_summary(spans)
    print(_format_slo(summary))
    if args.slo_json:
        with open(args.slo_json, "w", encoding="utf-8") as fh:
            _json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote SLO summary to {args.slo_json}")
    return 0


def run_trace(argv: List[str]) -> int:
    """``python -m repro trace``: run one algorithm with cost recording on.

    Prints the per-phase cost breakdown (:func:`repro.analysis.timeline.explain`)
    and the dominant-term summary, then optionally exports the records.
    The ``merge`` subcommand (:func:`_run_trace_merge`) instead folds
    ``repro.trace/1`` distributed-trace span files into one Perfetto view.
    """
    if argv and argv[0] == "merge":
        return _run_trace_merge(argv[1:])
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one algorithm on a cost-recording machine and inspect / "
            "export its per-phase cost provenance.  (`trace merge` folds "
            "repro.trace/1 distributed-trace span files into one "
            "Perfetto view instead.)"
        ),
    )
    parser.add_argument(
        "--model", choices=["qsm", "sqsm", "bsp"], default="sqsm",
        help="machine model to run on (default: sqsm)",
    )
    parser.add_argument("--n", type=int, default=256, help="input size (default: 256)")
    parser.add_argument("--g", type=float, default=4.0, help="bandwidth gap g (default: 4)")
    parser.add_argument(
        "--export", choices=["chrome", "jsonl"], default=None, dest="export_format",
        help="write the cost records to a file (chrome: Perfetto-loadable "
        "trace-event JSON; jsonl: one PhaseCostRecord per line)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path for --export (default: trace.json / trace.jsonl)",
    )
    args = parser.parse_args(argv)

    from repro.algorithms.parity import parity_blocks, parity_bsp, parity_tree
    from repro.analysis.timeline import explain, explain_summary
    from repro.core import BSP, QSM, SQSM, BSPParams, QSMParams, SQSMParams
    from repro.problems import gen_bits, verify_parity

    bits = gen_bits(args.n, seed=args.n)
    if args.model == "qsm":
        machine = QSM(QSMParams(g=args.g), record_costs=True)
        result = parity_blocks(machine, bits)
    elif args.model == "sqsm":
        machine = SQSM(SQSMParams(g=args.g), record_costs=True)
        result = parity_tree(machine, bits)
    else:
        machine = BSP(64, BSPParams(g=args.g, L=4 * args.g), record_costs=True)
        result = parity_bsp(machine, bits)
    ok = verify_parity(bits, result.value)

    print(f"parity(n={args.n}) on {machine.model_label} (g={args.g:g}): "
          f"answer {'correct' if ok else 'WRONG'}, cost {result.time:g}\n")
    print(explain(machine))
    print()
    print(explain_summary(machine))

    if args.export_format:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.export_format == "chrome":
            out = args.out or "trace.json"
            write_chrome_trace(machine.cost_records, out)
            print(f"\nwrote Chrome trace-event file to {out} "
                  "(load it at https://ui.perfetto.dev)")
        else:
            out = args.out or "trace.jsonl"
            write_jsonl(machine.cost_records, out)
            print(f"\nwrote {len(machine.cost_records)} records to {out}")
    return 0 if ok else 1


def run_chaos(argv: List[str]) -> int:
    """``python -m repro chaos``: the adversarial robustness gate.

    Runs every Section 8 algorithm under all winner policies, an
    adversarial winner search, and every shipped fault schedule
    (:mod:`repro.faults.harness`), plus the fault-tolerant sweep-runner
    demo (:mod:`repro.faults.sweep_demo`).  Exit code 0 iff everything
    survives.  See docs/ROBUSTNESS.md.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Run the Section 8 algorithms under adversarial winner policies "
            "and injected faults, and the sweep runner through crash / hang / "
            "torn-store-entry scenarios; report what survives."
        ),
    )
    parser.add_argument("--n", type=int, default=64, help="input size (default: 64)")
    parser.add_argument("--seed", type=int, default=0, help="input/schedule seed (default: 0)")
    parser.add_argument(
        "--budget", type=int, default=24,
        help="adversarial winner-search runs per algorithm (default: 24)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="self-check attempts per fault schedule (default: 3)",
    )
    parser.add_argument(
        "--only", default=None, metavar="SUBSTR",
        help="run only cases whose name contains SUBSTR (e.g. 'BSP', 'parity')",
    )
    parser.add_argument(
        "--skip-sweep-demo", action="store_true",
        help="skip the fault-tolerant sweep-runner demo",
    )
    parser.add_argument(
        "--net", action="store_true",
        help="also run the network chaos suite (real TCP workers behind a "
             "fault-injecting proxy; see docs/DISTRIBUTED.md)",
    )
    parser.add_argument(
        "--net-only", action="store_true",
        help="run only the network chaos suite",
    )
    parser.add_argument(
        "--net-points", type=int, default=6,
        help="points per network chaos case (default: 6)",
    )
    parser.add_argument(
        "--fault-log", default=None, metavar="PATH",
        help="append frame-level network fault verdicts to PATH (JSONL)",
    )
    args = parser.parse_args(argv)

    from repro.faults.harness import render_chaos_report, run_chaos_suite

    ok = True
    if not args.net_only:
        report = run_chaos_suite(
            n=args.n,
            seed=args.seed,
            budget=args.budget,
            max_attempts=args.max_attempts,
            only=args.only,
        )
        print(render_chaos_report(report))
        ok = report.ok

    if args.net or args.net_only:
        from repro.faults.net_harness import run_net_chaos_suite

        print("\nnetwork chaos (TCP fleet behind the fault proxy):")
        net_report = run_net_chaos_suite(
            points=args.net_points,
            fault_log=args.fault_log,
            only=args.only if args.net_only else None,
        )
        print(render_chaos_report(net_report))
        ok = ok and net_report.ok

    if not args.skip_sweep_demo and not args.net_only:
        from repro.faults.sweep_demo import run_sweep_demo

        print("\nsweep-runner fault demo (worker crash / hung point / torn store entry):")
        summary = run_sweep_demo()
        for key, value in summary.items():
            print(f"  {key}: {value}")
        ok = ok and summary["survived"]

    print()
    print("CHAOS: " + ("all clear" if ok else "FAILURES — see above"))
    return 0 if ok else 1


def run_version() -> int:
    """``python -m repro version``: version plus the resolved phase engine.

    The second line surfaces what :func:`repro.core.engine_vector.resolve_engine`
    would pick for machines built in this process — including the silent-ish
    numpy fallback ("vector -> reference") that would otherwise only show as
    a one-time warning.
    """
    from repro import __version__
    from repro.core.engine_vector import ENGINE_ENV, have_numpy, resolve_engine
    import os
    import warnings

    print(__version__)
    requested = os.environ.get(ENGINE_ENV) or "reference"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # version output stays clean
            resolved = resolve_engine()
    except ValueError as exc:
        print(f"engine: error ({exc})", file=sys.stderr)
        return 2
    detail = "numpy available" if have_numpy() else "numpy unavailable"
    if requested != resolved:
        print(f"engine: {resolved} (requested {requested!r}; {detail})")
    else:
        print(f"engine: {resolved} ({detail})")
    return 0


def _interval_value(text: str) -> float:
    """Parse a positive, finite second count.

    The one check behind ``--interval`` (as its argparse type) and
    ``REPRO_METRICS_INTERVAL`` (via :func:`_check_env`).
    """
    import argparse
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds, got {text!r}"
        ) from None
    if not value > 0 or math.isinf(value):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number of seconds, got {text}"
        )
    return value


def run_metrics(argv: List[str]) -> int:
    """``python -m repro metrics``: inspect the runtime metrics registry.

    ``dump`` prints the process-wide registry (:mod:`repro.obs.metrics`)
    as an aligned table — or, with ``--snapshots PATH``, the last
    :class:`~repro.obs.snapshot.MetricsSnapshot` of a JSONL stream
    written by ``campaign run --metrics``.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description="Inspect the process-wide runtime metrics registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="print the registry (or a snapshot file) as a table")
    p.add_argument(
        "--snapshots", default=None, metavar="PATH",
        help="render the last snapshot of a metrics JSONL stream instead "
        "of this process's live registry",
    )
    args = parser.parse_args(argv)

    from repro.obs.metrics import REGISTRY, render_metrics_table

    if args.snapshots:
        from repro.obs.snapshot import read_snapshots

        try:
            snapshots = read_snapshots(args.snapshots)
        except OSError as exc:
            print(f"error: cannot read {args.snapshots}: {exc}", file=sys.stderr)
            return 2
        if not snapshots:
            print(f"no snapshots in {args.snapshots}", file=sys.stderr)
            return 1
        last = snapshots[-1]
        print(f"snapshot {last.seq} at t+{last.t_rel:.2f}s"
              + (" (final)" if last.final else ""))
        print(render_metrics_table(last.metrics))
        return 0
    if not REGISTRY.enabled:
        print("(metrics registry disabled — set REPRO_METRICS=1 or use "
              "campaign run --metrics)")
    print(render_metrics_table(REGISTRY.collect()))
    return 0


def run_bench(argv: List[str]) -> int:
    """``python -m repro bench check``: the bench-regression watchdog.

    Diffs current bench points against a committed ``BENCH_*.json``
    baseline with noise-aware, direction-aware relative tolerances
    (:mod:`repro.obs.regress`), prints a markdown report (``--report``
    also writes it to a file), and exits 0 clean / 1 on regression / 2 on
    usage errors.  The current side is ``--current PATH``, ``--store
    DIR`` (result-store outcomes), or — for the sched A/B, phase-engine
    and cross-model schemas — a fresh ``--samples K`` median-of-k
    re-measurement.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Guard the committed bench trajectory: diff current points "
            "against a baseline and fail on regression."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", help="diff current bench points against a baseline")
    p.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="committed BENCH_*.json to diff against",
    )
    p.add_argument(
        "--current", default=None, metavar="PATH",
        help="current BENCH_*.json (default: re-measure sched-, phase-engine- "
        "and cross-model-schema baselines; other schemas need --current or "
        "--store)",
    )
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="use a result store's outcomes as the current side",
    )
    p.add_argument(
        "--samples", type=int, default=1, metavar="K",
        help="median-of-K re-measurements when regenerating (default: 1)",
    )
    p.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help="relative tolerance for deterministic metrics (default: 0.01)",
    )
    p.add_argument(
        "--wall-tolerance", type=float, default=None, metavar="FRAC",
        help="relative tolerance for wall-clock ratio metrics (default: 0.6)",
    )
    p.add_argument(
        "--strict-wall", action="store_true",
        help="gate raw wall-clock metrics too (same-machine A/B use)",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the markdown report to PATH",
    )
    args = parser.parse_args(argv)

    if args.samples < 1:
        print(f"error: --samples must be >= 1, got {args.samples}", file=sys.stderr)
        return 2

    from repro.obs.regress import (
        DEFAULT_TOLERANCE,
        DEFAULT_WALL_TOLERANCE,
        collect_sched_current,
        compare_bench,
        load_bench,
        store_outcome_metrics,
    )

    try:
        baseline = load_bench(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline: {exc}", file=sys.stderr)
        return 2

    if args.current is not None:
        try:
            current = load_bench(args.current)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read current: {exc}", file=sys.stderr)
            return 2
        current_source = args.current
    elif args.store is not None:
        from repro.sched.store import ResultStore

        current = store_outcome_metrics(ResultStore(args.store))
        current_source = f"store:{args.store}"
    elif "engines" in baseline:
        from repro.obs.regress import collect_phase_engine_current

        print(f"re-measuring the phase-engine bench ({args.samples} sample(s))...")
        try:
            current = collect_phase_engine_current(samples=args.samples)
        except ImportError:
            print(
                "error: the benchmarks tree is not importable here; pass "
                "--current PATH (run with PYTHONPATH=src:. to re-measure)",
                file=sys.stderr,
            )
            return 2
        current_source = f"bench_phase_engine.collect() median-of-{args.samples}"
    elif "cells" in baseline:
        from repro.obs.regress import collect_cross_model_current

        print(f"re-measuring the cross-model bench ({args.samples} sample(s))...")
        try:
            current = collect_cross_model_current(samples=args.samples)
        except ImportError:
            print(
                "error: the benchmarks tree is not importable here; pass "
                "--current PATH (run with PYTHONPATH=src:. to re-measure)",
                file=sys.stderr,
            )
            return 2
        current_source = f"bench_cross_model.collect() median-of-{args.samples}"
    elif "timings" in baseline or "throughput" in baseline:
        print(f"re-measuring the sched bench ({args.samples} sample(s))...")
        try:
            current = collect_sched_current(samples=args.samples)
        except ImportError:
            print(
                "error: the benchmarks tree is not importable here; pass "
                "--current PATH (run with PYTHONPATH=src:. to re-measure)",
                file=sys.stderr,
            )
            return 2
        current_source = f"bench_sched.collect() median-of-{args.samples}"
    else:
        print(
            "error: this baseline schema cannot be re-measured automatically; "
            "pass --current PATH or --store DIR",
            file=sys.stderr,
        )
        return 2

    try:
        report = compare_bench(
            baseline,
            current,
            tolerance=DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance,
            wall_tolerance=(
                DEFAULT_WALL_TOLERANCE if args.wall_tolerance is None
                else args.wall_tolerance
            ),
            strict_wall=args.strict_wall,
            baseline_source=args.baseline,
            current_source=current_source,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    markdown = report.render_markdown()
    print(markdown)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"wrote {args.report}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and not report.ok:
        # A failed gate surfaces its full diff table on the Actions run
        # summary page, so nobody has to dig through step logs for the
        # regressing metric.
        try:
            with open(summary_path, "a", encoding="utf-8") as fh:
                fh.write(f"## bench check failed: {args.baseline}\n\n")
                fh.write(markdown)
                fh.write("\n")
        except OSError as exc:
            print(f"warning: cannot write GITHUB_STEP_SUMMARY: {exc}",
                  file=sys.stderr)
    return 0 if report.ok else 1


#: How long ``campaign status --follow`` waits for the snapshot file to
#: appear before giving up (overridable with ``--wait``).
DEFAULT_FOLLOW_WAIT = 30.0


def _follow_metrics(
    path: str,
    follow: bool,
    interval: Optional[float],
    wait: Optional[float] = None,
) -> int:
    """Render a campaign's metrics-snapshot stream as live status lines.

    Reads only the JSONL file the scheduler writes (``campaign run
    --metrics``) — never attaches to the scheduler or worker processes.
    With ``follow=True`` polls until the stream's ``final`` snapshot
    appears; otherwise prints whatever is there and returns.

    A follow may legitimately start before the file exists — ``python -m
    repro serve`` hands tenants a snapshot path as soon as the service
    boots, before the first emit — so the not-yet-created phase is a
    bounded wait-and-retry (``wait`` seconds, default
    :data:`DEFAULT_FOLLOW_WAIT`) instead of an immediate error.  Once
    the first snapshot lands, following is unbounded (the stream ends
    with its ``final`` snapshot).
    """
    import time

    from repro.obs.snapshot import default_interval, live_status_line, read_snapshots

    poll = default_interval() if interval is None else interval
    deadline_s = DEFAULT_FOLLOW_WAIT if wait is None else wait
    deadline = time.monotonic() + deadline_s
    printed = 0
    announced_wait = False
    while True:
        try:
            snapshots = read_snapshots(path)
        except OSError:
            snapshots = []
        for snap in snapshots[printed:]:
            print(live_status_line(snap))
        printed = len(snapshots)
        if snapshots and snapshots[-1].final:
            return 0
        if not follow:
            if not printed:
                print(f"no metrics snapshots at {path} (start the campaign "
                      "with --metrics)", file=sys.stderr)
                return 1
            return 0
        if not printed:
            if time.monotonic() >= deadline:
                print(
                    f"gave up waiting for {path} after {deadline_s:.0f}s "
                    "(start the campaign with --metrics, or raise --wait)",
                    file=sys.stderr,
                )
                return 1
            if not announced_wait:
                announced_wait = True
                print(f"waiting for {path} ...", file=sys.stderr)
        time.sleep(poll)


def run_campaign_cli(argv: List[str]) -> int:
    """``python -m repro campaign``: drive the campaign scheduler.

    Subcommands: ``run`` (execute, resuming from the store), ``resume``
    (alias of ``run`` — resumption is the default semantics), ``status``
    (per-task done/pending against the store), ``prune`` (store GC) and
    ``list`` (available campaigns).  See docs/SCHEDULER.md.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Execute declarative task campaigns (Table 1, Section 8, the "
            "chaos gate, the cross-model table, a demo) on a warm worker "
            "pool with a "
            "content-addressed result store."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p: "argparse.ArgumentParser") -> None:
        from repro.sched.store import STORE_ENV

        p.add_argument(
            "--store", default=None, metavar="DIR",
            help=f"result-store directory (default: ${STORE_ENV} or .repro-store)",
        )

    def add_campaign_args(p: "argparse.ArgumentParser") -> None:
        p.add_argument(
            "name", nargs="?", default=None,
            help="campaign name (demo, table1, section8, chaos, cross_model)",
        )
        p.add_argument(
            "--demo", action="store_true",
            help="shorthand for the 'demo' campaign",
        )
        p.add_argument(
            "--points", type=int, default=8,
            help="demo campaign: number of point tasks (default: 8)",
        )
        p.add_argument(
            "--delay", type=float, default=0.05,
            help="demo campaign: per-task sleep in seconds (default: 0.05)",
        )
        add_store(p)

    for cmd, doc in (
        ("run", "execute a campaign (tasks already in the store are skipped)"),
        ("resume", "alias of run: resumption from the store is the default"),
    ):
        p = sub.add_parser(cmd, help=doc)
        add_campaign_args(p)
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write the Chrome trace (scheduler spans + metrics counter "
            "lanes + per-task phase rows; Perfetto) on completion",
        )
        p.add_argument(
            "--metrics", nargs="?", const="auto", default=None, metavar="PATH",
            help="stream metrics snapshots to a JSONL file while running "
            "(default PATH: <store>/metrics.jsonl); `campaign status "
            "--follow` tails it",
        )
        p.add_argument(
            "--interval", type=_interval_value, default=None, metavar="SECONDS",
            help="snapshot cadence for --metrics "
            "(default: $REPRO_METRICS_INTERVAL or 1.0)",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress per-task progress lines"
        )

    p = sub.add_parser("status", help="per-task resume status against the store")
    add_campaign_args(p)
    p.add_argument(
        "--follow", action="store_true",
        help="tail a running campaign's metrics snapshots as live progress "
        "lines (stops at the final snapshot)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="metrics JSONL stream to read (default: <store>/metrics.jsonl)",
    )
    p.add_argument(
        "--interval", type=_interval_value, default=None, metavar="SECONDS",
        help="--follow poll cadence (default: $REPRO_METRICS_INTERVAL or 1.0)",
    )
    p.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="--follow: how long to wait for a not-yet-created snapshot "
        f"file before giving up (default: {DEFAULT_FOLLOW_WAIT:.0f})",
    )

    p = sub.add_parser("prune", help="garbage-collect the result store")
    add_store(p)
    p.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="prune entries older than DAYS days (default: prune everything)",
    )
    p.add_argument(
        "--dry-run", action="store_true", help="report what would be pruned only"
    )

    sub.add_parser("list", help="list the available campaigns")

    args = parser.parse_args(argv)

    from repro.sched.store import STORE_ENV, ResultStore

    def store_for(ns: "argparse.Namespace") -> ResultStore:
        root = ns.store or os.environ.get(STORE_ENV) or ".repro-store"
        return ResultStore(root)

    if args.command == "list":
        from repro.sched.campaigns import CAMPAIGNS

        for name, builder in sorted(CAMPAIGNS.items()):
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0

    if args.command == "prune":
        store = store_for(args)
        older = None if args.older_than is None else args.older_than * 86400.0
        before = store.stats()
        pruned = store.prune(older_than_s=older, dry_run=args.dry_run)
        verb = "would prune" if args.dry_run else "pruned"
        print(
            f"{verb} {len(pruned)} of {before.entries} entries "
            f"({before.quarantined} quarantined) from {store.root}"
        )
        return 0

    from repro.sched.campaigns import build_campaign

    # A snapshot stream is self-describing, so following one needs no
    # campaign definition — only a path (explicit or the store default).
    if args.command == "status" and (args.follow or args.metrics):
        store = store_for(args)
        metrics_path = args.metrics or os.path.join(store.root, "metrics.jsonl")
        return _follow_metrics(
            metrics_path, follow=args.follow, interval=args.interval,
            wait=args.wait,
        )

    name = "demo" if args.demo else args.name
    if name is None:
        parser.error(f"{args.command} needs a campaign name (or --demo)")
    opts = {"points": args.points, "delay": args.delay} if name == "demo" else {}
    try:
        campaign = build_campaign(name, **opts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = store_for(args)

    if args.command == "status":
        from repro.sched.campaign import campaign_status

        rows = campaign_status(campaign, store)
        done = sum(1 for _, s in rows if s == "done")
        stored = sum(1 for _, s in rows if s != "inline")
        for task_name, state in rows:
            print(f"{state:8s} {task_name}")
        stats = store.stats()
        print(
            f"\ncampaign {campaign.name}: {done}/{stored} stored task(s) done; "
            f"store {store.root}: {stats.entries} entries, {stats.bytes} bytes"
            + (f", {stats.quarantined} quarantined" if stats.quarantined else "")
        )
        return 0

    # run / resume
    from repro.sched.campaign import run_campaign

    metrics_path = args.metrics
    if metrics_path == "auto":
        metrics_path = os.path.join(store.root, "metrics.jsonl")
    report = run_campaign(
        campaign,
        store,
        progress=None if args.quiet else print,
        trace_path=args.trace,
        metrics_path=metrics_path,
        metrics_interval=args.interval,
    )
    print(report.render())
    if args.trace:
        print(f"wrote campaign trace to {args.trace} "
              "(load it at https://ui.perfetto.dev)")
    if metrics_path:
        print(f"wrote metrics snapshots to {metrics_path} "
              f"(watch live with `python -m repro campaign status --follow "
              f"--metrics {metrics_path}`)")
    if report.cancelled:
        print(f"re-run `python -m repro campaign run {name}` to resume")
        return 130
    return 0 if report.ok else 1


def run_serve(argv: List[str]) -> int:
    """``python -m repro serve``: the multi-tenant campaign service.

    Subcommands: ``run`` (boot the HTTP service), ``submit`` (POST a
    campaign as a tenant, optionally watching it to completion),
    ``watch`` (attach to a job's SSE stream) and ``campaigns`` (list
    what the server accepts).  See docs/SERVICE.md for the wire
    contracts and a curl walkthrough.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve campaign submissions over HTTP: many tenants, one warm "
            "worker pool, fair-share queueing, content-addressed dedup, "
            "and an SSE live dashboard."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_url(p: "argparse.ArgumentParser") -> None:
        p.add_argument(
            "--url", default="http://127.0.0.1:8023",
            help="service base URL (default: http://127.0.0.1:8023)",
        )
        p.add_argument(
            "--tenant", default=None,
            help="tenant name sent as X-Repro-Tenant (default: anonymous)",
        )

    p = sub.add_parser("run", help="boot the service")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8023,
        help="bind port (default: 8023; 0 picks an ephemeral port)",
    )
    from repro.sched.store import STORE_ENV

    p.add_argument(
        "--store", default=None, metavar="DIR",
        help=f"result-store directory (default: ${STORE_ENV} or .repro-store)",
    )
    p.add_argument(
        "--interval", type=_interval_value, default=None, metavar="SECONDS",
        help="SSE snapshot cadence (default: $REPRO_METRICS_INTERVAL or 1.0)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also append snapshots to a JSONL file (`campaign status "
        "--follow --metrics PATH` tails it, waiting for it to appear)",
    )
    p.add_argument(
        "--max-jobs", type=int, default=4, metavar="N",
        help="per-tenant concurrent job quota (default: 4)",
    )
    p.add_argument(
        "--max-tasks-in-flight", type=int, default=None, metavar="N",
        help="per-tenant cap on pool tasks held at once (default: none)",
    )
    p.add_argument(
        "--max-tasks-per-job", type=int, default=4096, metavar="N",
        help="largest admissible campaign (default: 4096 tasks)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress lines"
    )
    p.add_argument(
        "--workers-port", type=int, default=None, metavar="PORT",
        help="listen for TCP workers instead of forking local workers "
        "(0 picks an ephemeral port; join with `python -m repro worker`)",
    )
    p.add_argument(
        "--workers-host", default="127.0.0.1", metavar="HOST",
        help="bind address for the worker fabric (default: 127.0.0.1)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable distributed tracing and append repro.trace/1 spans "
        "to PATH (also enabled by REPRO_TRACE=1; see docs/OBSERVABILITY.md)",
    )

    p = sub.add_parser("submit", help="submit a campaign to a running service")
    p.add_argument("name", help="campaign name (see `serve campaigns`)")
    add_url(p)
    p.add_argument(
        "--points", type=int, default=None,
        help="demo campaign: number of point tasks",
    )
    p.add_argument(
        "--delay", type=float, default=None,
        help="demo campaign: per-task sleep in seconds",
    )
    p.add_argument(
        "--option", action="append", default=[], metavar="KEY=VALUE",
        help="generic campaign option (repeatable; values parsed as JSON)",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="stream the job to completion and exit 0 only if it finished",
    )
    p.add_argument(
        "--cancel-on-disconnect", action="store_true",
        help="with --watch: cancel the job if this client disconnects",
    )

    p = sub.add_parser("watch", help="attach to a job's SSE stream")
    p.add_argument("job", help="job id, e.g. job-0001")
    add_url(p)
    p.add_argument(
        "--cancel-on-disconnect", action="store_true",
        help="cancel the job if this client disconnects",
    )

    p = sub.add_parser("campaigns", help="list the submittable campaigns")
    add_url(p)

    p = sub.add_parser("workers", help="show the service's worker fleet")
    add_url(p)

    p = sub.add_parser("slo", help="print the service's percentile latency SLOs")
    add_url(p)

    args = parser.parse_args(argv)

    if args.command == "run":
        from repro.sched.tenancy import TenantQuota
        from repro.serve.http import create_server, serve_forever
        from repro.serve.service import CampaignService

        store_root = args.store or os.environ.get(STORE_ENV) or ".repro-store"
        try:
            quota = TenantQuota(
                max_jobs=args.max_jobs,
                max_tasks_in_flight=args.max_tasks_in_flight,
                max_tasks_per_job=args.max_tasks_per_job,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from repro.obs import tracing as _tracing

        if args.trace:
            _tracing.enable_tracing(path=args.trace)
            print(f"tracing to {args.trace} (repro.trace/1; merge with "
                  f"`python -m repro trace merge {args.trace} --out trace.json`)")
        elif _tracing.TRACER.enabled:
            print("tracing enabled via REPRO_TRACE "
                  "(pass --trace PATH to capture spans to a file)")
        service = CampaignService(
            store_root,
            quota=quota,
            snapshot_interval=args.interval,
            metrics_path=args.metrics,
            progress=None if args.quiet else print,
            workers_port=args.workers_port,
            workers_host=args.workers_host,
        )
        server = create_server(
            service, host=args.host, port=args.port,
            log=None if args.quiet else (lambda line: print(line, file=sys.stderr)),
        )
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port} (store {store_root}; "
              f"dashboard at /, contracts repro.serve/1)")
        if args.workers_port is not None:
            whost, wport = service.mux.pool.address
            print(f"worker fabric on {whost}:{wport} (join with "
                  f"`python -m repro worker {whost} {wport}`)")
        if args.metrics:
            print(f"streaming snapshots to {args.metrics} (tail with "
                  f"`python -m repro campaign status --follow "
                  f"--metrics {args.metrics}`)")
        try:
            serve_forever(server)
        except KeyboardInterrupt:
            print("\nshutting down (queued/running jobs stay resumable)")
        return 0

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url, tenant=args.tenant)

    try:
        if args.command == "campaigns":
            for entry in client.campaigns():
                opts = ", ".join(
                    f"{o['name']}={o['default']}" for o in entry["options"]
                ) or "-"
                print(f"{entry['name']:10s} {entry['summary']}  [{opts}]")
            return 0

        if args.command == "slo":
            slo = client.slo()
            if not slo.get("enabled"):
                print("tracing is off on this service (start it with "
                      "REPRO_TRACE=1 or --trace PATH); no SLO data")
                return 0
            print(_format_slo(slo))
            return 0

        if args.command == "workers":
            view = client.workers()
            listen = view.get("listen")
            if listen:
                print(f"worker fabric listening on {listen} "
                      f"({view['live']} live)")
            else:
                print(f"local forked workers ({view['live']} live)")
            for row in view["workers"]:
                latency = row.get("heartbeat_latency_s")
                beat = f"{latency * 1000:.1f}ms" if latency is not None else "-"
                current = row.get("current") or "-"
                print(f"  {row['name']:20s} {row['state']:8s} "
                      f"gen={row['generation']} done={row['tasks_done']} "
                      f"beat={beat} task={current}")
            return 0

        if args.command == "submit":
            options: dict = {}
            for pair in args.option:
                key, sep, value = pair.partition("=")
                if not sep:
                    print(f"error: --option needs KEY=VALUE, got {pair!r}",
                          file=sys.stderr)
                    return 2
                try:
                    options[key] = _json.loads(value)
                except ValueError:
                    options[key] = value
            if args.points is not None:
                options["points"] = args.points
            if args.delay is not None:
                options["delay"] = args.delay
            job = client.submit(args.name, options)
            print(f"submitted {job['id']} ({job['campaign']}, "
                  f"tenant {job['tenant']}, {job['tasks']} tasks)")
            if not args.watch:
                print(_json.dumps(job, indent=2, sort_keys=True))
                return 0
            final = _watch_job(client, job["id"], args.cancel_on_disconnect)
            print(_json.dumps(final, indent=2, sort_keys=True))
            return 0 if final.get("state") == "done" else 1

        # watch
        final = _watch_job(client, args.job, args.cancel_on_disconnect)
        print(_json.dumps(final, indent=2, sort_keys=True))
        return 0 if final.get("state") == "done" else 1
    except ServeError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


def run_worker_cli(argv: List[str]) -> int:
    """``python -m repro worker``: join a scheduler's TCP worker fabric.

    Dials the scheduler (``serve run --workers-port`` or a bare
    :class:`~repro.sched.pool.WorkerPool` given a port), registers under a
    stable name, and serves tasks until stopped, evicted, or out of
    reconnect budget.  See docs/DISTRIBUTED.md for the protocol and the
    exit-code contract.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description=(
            "Run one TCP worker: register with a scheduler, execute tasks, "
            "answer heartbeats, redial with backoff when the link drops."
        ),
    )
    parser.add_argument("host", help="scheduler address")
    parser.add_argument("port", type=int, help="scheduler worker port")
    parser.add_argument(
        "--name", default=None,
        help="stable worker identity (default: <hostname>-<pid>); reusing "
        "a name bumps its generation and evicts the older connection",
    )
    parser.add_argument(
        "--no-reconnect", action="store_true",
        help="exit on a lost connection instead of redialling",
    )
    parser.add_argument(
        "--max-reconnects", type=int, default=None, metavar="N",
        help="bound redial attempts (default: unbounded)",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-dial connect/registration timeout (default: 5.0)",
    )
    args = parser.parse_args(argv)

    from repro.sched.net.worker import run_worker

    return run_worker(
        args.host,
        args.port,
        name=args.name,
        reconnect=not args.no_reconnect,
        max_reconnects=args.max_reconnects,
        connect_timeout=args.connect_timeout,
    )


def _format_slo(slo: dict) -> str:
    """One status line from a ``GET /v1/slo`` payload body."""
    def bucket(b: dict) -> str:
        if not b.get("count"):
            return "no samples"
        return (f"p50={b['p50']:.3f}s p95={b['p95']:.3f}s "
                f"p99={b['p99']:.3f}s (n={b['count']})")

    task = slo.get("task", {})
    e2e = slo.get("end_to_end", {})
    return f"slo: task {bucket(task)} | end-to-end {bucket(e2e)}"


def _watch_job(client, job_id: str, cancel_on_disconnect: bool) -> dict:
    """Stream a job's SSE events, printing state changes; returns the final view.

    On traced services the terminal line is followed by the job's
    ``trace_id`` and the service's current percentile SLOs.
    """
    last_line = None
    view = client.job(job_id)
    for envelope in client.watch(job_id, cancel_on_disconnect=cancel_on_disconnect):
        view = envelope["job"]
        counts = " ".join(f"{k}:{v}" for k, v in sorted(view["counts"].items()))
        line = f"{view['id']} {view['state']}  {counts}"
        if line != last_line:
            print(line)
            last_line = line
    if view.get("trace_id"):
        print(f"trace: {view['trace_id']}")
        try:
            slo = client.slo()
            if slo.get("enabled"):
                print(_format_slo(slo))
        except Exception:
            pass  # an old server without /v1/slo; the watch still succeeded
    return view


def _jobs_value(text: str) -> int:
    """Parse a worker count, an integer >= 1.

    The one check behind ``--jobs`` (via :func:`parse_jobs`) and
    ``REPRO_JOBS`` (via :func:`_check_env`).
    """
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_jobs(argv: List[str]) -> Tuple[List[str], Optional[int]]:
    """Strip ``--jobs N`` / ``--jobs=N`` from ``argv``; return (rest, jobs)."""
    import argparse

    rest: List[str] = []
    jobs: Optional[int] = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--jobs":
            if i + 1 >= len(argv):
                raise SystemExit("--jobs needs a value, e.g. --jobs 4")
            value = argv[i + 1]
            i += 2
        elif arg.startswith("--jobs="):
            value = arg.split("=", 1)[1]
            i += 1
        else:
            rest.append(arg)
            i += 1
            continue
        try:
            jobs = _jobs_value(value)
        except argparse.ArgumentTypeError as exc:
            raise SystemExit(f"--jobs {exc}") from None
    return rest, jobs


def _check_env(name: str, parse: Callable[[str], object]) -> None:
    """Reject a malformed environment variable up front, argparse-style (exit 2).

    The library readers (:func:`repro.analysis.parallel_sweep.default_jobs`,
    :func:`repro.obs.snapshot.default_interval`) keep their lenient
    fallbacks, so programmatic use never explodes mid-sweep; the CLI is
    where a typo'd environment should be caught loudly instead of silently
    ignored.
    """
    import argparse

    env = os.environ.get(name)
    if env is None or not env.strip():
        return
    try:
        parse(env)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {name} {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, jobs = parse_jobs(argv)
    if jobs is None:
        _check_env("REPRO_JOBS", _jobs_value)  # an explicit --jobs overrides it
    _check_env("REPRO_METRICS_INTERVAL", _interval_value)  # --interval overrides it per command
    if jobs is not None:
        # parallel_sweep's default_jobs() reads this, so one flag fans out
        # to every sweep in the run (including ones in worker processes).
        os.environ["REPRO_JOBS"] = str(jobs)
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        print("experiments:", ", ".join(EXPERIMENTS), "(default: all)")
        print("other commands: trace (cost-provenance inspection; trace --help), "
              "chaos (fault-injection gate; chaos --help), "
              "campaign (scheduler; campaign --help), "
              "serve (multi-tenant campaign service; serve --help), "
              "worker (join a TCP worker fabric; worker --help), "
              "metrics (registry/snapshot dump; metrics --help), "
              "bench (regression watchdog; bench --help), version")
        return 0
    if argv and argv[0] in ("version", "--version", "-V"):
        return run_version()
    if argv and argv[0] == "trace":
        return run_trace(argv[1:])
    if argv and argv[0] == "chaos":
        return run_chaos(argv[1:])
    if argv and argv[0] == "metrics":
        return run_metrics(argv[1:])
    if argv and argv[0] == "bench":
        return run_bench(argv[1:])
    if argv and argv[0] == "campaign":
        return run_campaign_cli(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "worker":
        return run_worker_cli(argv[1:])
    chosen = argv or list(EXPERIMENTS)
    unknown = [a for a in chosen if a not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; know {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    status = 0
    for i, name in enumerate(chosen):
        if i:
            print("\n" + "=" * 78 + "\n")
        print(f"### experiment {name}\n")
        verdicts = EXPERIMENTS[name]()
        if verdicts:
            from benchmarks.common import failing_verdicts

            for failure in failing_verdicts(verdicts):
                print(f"experiment {name} failed: {failure}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
