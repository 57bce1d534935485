"""repro.obs — cost-provenance observability for the model simulators.

Every number the simulators report is an evaluation of a small ``max()``:
``max(m_op, g*m_rw, kappa)`` on the QSM, ``max(m_op, g*m_rw, g*kappa)`` on
the s-QSM, ``max(w, g*h, L)`` on the BSP, and ``mu * b`` big-steps on the
GSM.  This package records *which* term of that max set the charge, phase
by phase, so a measured curve can be explained rather than just plotted:

* :class:`~repro.obs.records.PhaseCostRecord` — one committed phase or
  superstep: per-term values, the winning (dominant) term, the contention
  histogram over cells, per-processor op counts, and wall-clock time.
* :func:`~repro.obs.records.summarize` /
  :class:`~repro.obs.records.RunCostSummary` — per-run aggregation into
  dominant-term counts and cost-weighted dominant-term fractions.
* :func:`~repro.obs.records.machine_cost_records` — records for any
  machine, taken live (``record_costs=True``) or rebuilt from the phase
  history after the fact.
* :mod:`~repro.obs.exporters` — JSONL event streams
  (:func:`~repro.obs.exporters.write_jsonl` /
  :func:`~repro.obs.exporters.read_jsonl` round-trip) and Chrome
  trace-event JSON (:func:`~repro.obs.exporters.write_chrome_trace`),
  loadable in Perfetto (https://ui.perfetto.dev) for timeline inspection.
  Lane (pid) allocation is centralised in
  :data:`~repro.obs.exporters.TRACE_LANES`;
  :func:`~repro.obs.exporters.write_combined_trace` merges scheduler
  spans, metrics counter lanes and phase rows into one view.
* :mod:`~repro.obs.metrics` — the *runtime* counterpart of the records: a
  process-wide, dependency-free registry of counters, gauges and log2
  histograms threaded through the phase engines, the campaign scheduler
  and the sweep runner; zero-cost when disabled (one predicate test per
  site), like ``record_costs=``.
* :mod:`~repro.obs.snapshot` — periodic
  :class:`~repro.obs.snapshot.MetricsSnapshot` JSONL emission and the
  live-status rendering behind ``python -m repro campaign status
  --follow``.
* :mod:`~repro.obs.regress` — the bench-regression watchdog behind
  ``python -m repro bench check``: noise-aware baseline diffs of
  ``BENCH_*.json`` / store-backed points with a markdown report.
* :mod:`~repro.obs.tracing` — distributed spans (``repro.trace/1``):
  W3C-``traceparent``-style context propagated from the HTTP front door
  through the scheduler and the worker fabric down to per-phase cost
  records, plus exact p50/p95/p99 SLO summaries over span durations;
  zero-cost unless ``$REPRO_TRACE`` switches it on.

Machines collect records when constructed with ``record_costs=True`` (the
flag mirrors ``record_trace=``); the collection cost is zero when the flag
is off — the phase-issue hot paths are untouched and the commit pays one
predicate test.  See docs/OBSERVABILITY.md for the full schema and a
worked dominant-term crossover example.
"""

from repro.obs.records import (
    PhaseCostRecord,
    RunCostSummary,
    dominant_fractions,
    machine_cost_records,
    summarize,
)
from repro.obs.exporters import (
    chrome_trace_events,
    combined_trace_events,
    lane_pid,
    metrics_counter_events,
    read_jsonl,
    scheduler_trace_events,
    write_chrome_trace,
    write_combined_trace,
    write_jsonl,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, render_metrics_table
from repro.obs.regress import RegressionReport, compare_bench
from repro.obs.snapshot import MetricsSnapshot, SnapshotWriter, read_snapshots
from repro.obs.tracing import (
    Span,
    SpanContext,
    TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    parse_traceparent,
    slo_summary,
)

__all__ = [
    "PhaseCostRecord",
    "RunCostSummary",
    "summarize",
    "dominant_fractions",
    "machine_cost_records",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "scheduler_trace_events",
    "metrics_counter_events",
    "combined_trace_events",
    "write_combined_trace",
    "lane_pid",
    "REGISTRY",
    "MetricsRegistry",
    "render_metrics_table",
    "MetricsSnapshot",
    "SnapshotWriter",
    "read_snapshots",
    "RegressionReport",
    "compare_bench",
    "Span",
    "SpanContext",
    "TRACER",
    "Tracer",
    "enable_tracing",
    "disable_tracing",
    "parse_traceparent",
    "slo_summary",
]
