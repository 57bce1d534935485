"""Process-wide runtime metrics: counters, gauges and log2 histograms.

Cost records (:mod:`repro.obs.records`) are *post-hoc*: they explain a run
after it finished.  This module is the *runtime* counterpart — a
dependency-free registry of named metrics that the phase engines, the
campaign scheduler and the sweep runner increment while they work, so a
live campaign can be watched (``python -m repro campaign status
--follow``), snapshotted to JSONL (:mod:`repro.obs.snapshot`) and rendered
as Perfetto counter lanes next to the phase and scheduler spans.

Three metric kinds, all label-aware and thread-safe:

* :class:`Counter` — monotone non-decreasing totals (``inc``).  The
  monotonicity is a contract: snapshots of a counter series never go
  down (property-tested in ``tests/property/test_metrics_props.py``).
* :class:`Gauge` — a value that goes both ways (``set``/``inc``/``dec``):
  queue depth, frontier size, in-flight tasks.
* :class:`Histogram` — fixed **log2 buckets**: an observation ``v`` lands
  in the bucket whose upper bound is ``2**ceil(log2(v))``, clamped to
  ``[2**MIN_EXP, 2**MAX_EXP]``.  Exponent bucketing needs no a-priori
  bucket configuration, matches the power-of-two grids the paper's
  sweeps run on (κ, h-relations, n), and keeps per-series state a small
  sparse dict.  ``sum``/``count`` ride along so means are exact.

**Zero cost when disabled** — the same contract as ``record_costs=``:
every instrumentation site in the hot paths is guarded by a single
``REGISTRY.enabled`` predicate test, so with the registry disabled (the
default) the phase-issue and commit paths pay one attribute load + branch
and allocate nothing.  Enable with :func:`enable` /
``REGISTRY.enable()`` or by exporting ``REPRO_METRICS=1``.

Labels are keyword arguments: ``counter.inc(model="s-QSM")`` keeps one
series per distinct label set.  Series are keyed by the sorted label
items, so ``inc(a=1, b=2)`` and ``inc(b=2, a=1)`` are the same series.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "enable",
    "disable",
    "render_metrics_table",
    "record_phase",
    "record_superstep",
    "MIN_EXP",
    "MAX_EXP",
    "METRICS_ENV",
]

#: Environment variable enabling the process-wide registry at import time.
METRICS_ENV = "REPRO_METRICS"

#: Histogram exponent clamp: observations at or below ``2**MIN_EXP`` share
#: the lowest bucket, observations above ``2**MAX_EXP`` the highest.  The
#: range covers sub-microsecond latencies up to ~9e18 simulated cost units.
MIN_EXP = -30
MAX_EXP = 63

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    """Canonical (hashable) form of a label set: sorted ``(k, str(v))``."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_exponent(value: float) -> int:
    """The log2 bucket for ``value``: smallest ``e`` with ``value <= 2**e``.

    Non-positive observations clamp to :data:`MIN_EXP` (a latency of 0.0
    is a real measurement, not an error); huge ones to :data:`MAX_EXP`.
    """
    if value <= 0.0 or value <= 2.0 ** MIN_EXP:
        return MIN_EXP
    exp = math.ceil(math.log2(value))
    # log2 rounding can land one bucket high at exact powers of two.
    if exp > MIN_EXP and value <= 2.0 ** (exp - 1):
        exp -= 1
    return min(exp, MAX_EXP)


class Metric:
    """Base: a named metric owning one value-cell per label set."""

    kind = "?"

    def __init__(self, name: str, help: str = "", lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.help = help
        self._lock = lock if lock is not None else threading.Lock()
        self._series: Dict[_LabelKey, Any] = {}

    def labelsets(self) -> List[Dict[str, str]]:
        with self._lock:
            keys = list(self._series)
        return [dict(key) for key in keys]

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    def samples(self) -> List[Dict[str, Any]]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """A monotone non-decreasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot inc by {amount}")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set (the all-series total)."""
        with self._lock:
            return float(sum(self._series.values()))

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [{"labels": dict(k), "value": v} for k, v in items]


class Gauge(Metric):
    """A value that can go up and down (depth, size, occupancy)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [{"labels": dict(k), "value": v} for k, v in items]


class Histogram(Metric):
    """Fixed log2-bucket distribution with exact ``count`` and ``sum``.

    Per-series state is ``{"count": n, "sum": s, "buckets": {exp: n_e}}``
    where ``n_e`` counts observations with ``2**(exp-1) < v <= 2**exp``
    (clamped to ``[MIN_EXP, MAX_EXP]``).
    """

    kind = "histogram"

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name}: cannot observe NaN")
        exp = bucket_exponent(value)
        key = _label_key(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = {"count": 0, "sum": 0.0, "buckets": {}}
                self._series[key] = cell
            cell["count"] += 1
            cell["sum"] += value
            cell["buckets"][exp] = cell["buckets"].get(exp, 0) + 1

    def count(self, **labels: Any) -> int:
        with self._lock:
            cell = self._series.get(_label_key(labels))
            return int(cell["count"]) if cell else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            cell = self._series.get(_label_key(labels))
            return float(cell["sum"]) if cell else 0.0

    def mean(self, **labels: Any) -> float:
        with self._lock:
            cell = self._series.get(_label_key(labels))
            if not cell or not cell["count"]:
                return 0.0
            return cell["sum"] / cell["count"]

    def quantile(self, q: float, **labels: Any) -> float:
        """Approximate ``q``-quantile: the upper bound of the bucket where
        the cumulative count crosses ``q * count`` (an upper estimate,
        within a factor of 2 of the true quantile)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            cell = self._series.get(_label_key(labels))
            if not cell or not cell["count"]:
                return 0.0
            target = q * cell["count"]
            seen = 0
            for exp in sorted(cell["buckets"]):
                seen += cell["buckets"][exp]
                if seen >= target:
                    return 2.0 ** exp
            return 2.0 ** max(cell["buckets"])  # pragma: no cover - q <= 1

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = [
                (k, cell["count"], cell["sum"], dict(cell["buckets"]))
                for k, cell in sorted(self._series.items())
            ]
        return [
            {
                "labels": dict(k),
                "count": count,
                "sum": total,
                "buckets": {str(exp): n for exp, n in sorted(buckets.items())},
            }
            for k, count, total, buckets in items
        ]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with one enable/disable switch.

    ``counter()`` / ``gauge()`` / ``histogram()`` are idempotent
    get-or-create lookups (asking for an existing name with a different
    kind raises), so instrumentation sites need no shared setup.  The
    ``enabled`` attribute is the zero-cost gate: hot paths test it once
    and skip all metric work when it is ``False``.
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = os.environ.get(METRICS_ENV, "").strip().lower() in (
                "1", "true", "on", "yes",
            )
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- registration ------------------------------------------------------

    def _get_or_create(self, kind: str, name: str, help: str) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _KINDS[kind](name, help)
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create("counter", name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create("gauge", name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create("histogram", name, help)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Clear every series (registrations survive, cached refs stay valid)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()

    # -- export ------------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        """The registry's full state as JSON-ready dicts, sorted by name.

        This is the payload a :class:`repro.obs.snapshot.MetricsSnapshot`
        freezes: ``[{"name", "type", "help", "samples": [...]}, ...]``.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        return [
            {
                "name": name,
                "type": metric.kind,
                "help": metric.help,
                "samples": metric.samples(),
            }
            for name, metric in metrics
        ]


#: The process-wide registry every instrumentation site shares.  Disabled
#: by default (``REPRO_METRICS=1`` flips it on at import time).
REGISTRY = MetricsRegistry()


def enable() -> None:
    """Enable the process-wide registry."""
    REGISTRY.enable()


def disable() -> None:
    """Disable the process-wide registry (instrumentation goes zero-cost)."""
    REGISTRY.disable()


# -- rendering ---------------------------------------------------------------


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _fmt_num(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_metrics_table(metrics: Iterable[Mapping[str, Any]]) -> str:
    """Render ``MetricsRegistry.collect()`` output as an aligned text table.

    One row per series; histograms show ``count``, ``sum`` and the mean.
    This is what ``python -m repro metrics dump`` prints.
    """
    rows: List[Tuple[str, str, str, str]] = []
    for metric in metrics:
        kind = str(metric.get("type", "?"))
        for sample in metric.get("samples", ()):
            labels = _fmt_labels(sample.get("labels", {}))
            if kind == "histogram":
                count = sample.get("count", 0)
                total = float(sample.get("sum", 0.0))
                mean = total / count if count else 0.0
                value = f"count={count} sum={_fmt_num(total)} mean={_fmt_num(mean)}"
            else:
                value = _fmt_num(float(sample.get("value", 0.0)))
            rows.append((str(metric.get("name", "?")), kind, labels, value))
    if not rows:
        return "(no metrics recorded)"
    headers = ("metric", "type", "labels", "value")
    widths = [
        max(len(headers[i]), max(len(r[i]) for r in rows)) for i in range(4)
    ]
    def line(cells: Tuple[str, str, str, str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()
    return "\n".join([line(headers), line(tuple("-" * w for w in widths))] +  # type: ignore[arg-type]
                     [line(r) for r in rows])


# -- instrumentation helpers (core machines) ---------------------------------
#
# The phase engines call these from their commit paths, already behind an
# `if REGISTRY.enabled:` guard — everything below runs only when metrics
# are on, so it can afford the per-phase aggregation work.


def record_phase(model: str, record: Any, cost: float, faults: int = 0) -> None:
    """Account one committed shared-memory phase into the registry.

    ``record`` is the :class:`repro.core.phase.PhaseRecord` the commit just
    built; κ is the deepest cell queue of the phase (Section 2.1's
    contention), ops are reads + writes + local ops over all processors.
    """
    REGISTRY.counter(
        "repro_phases_total", "committed phases per model"
    ).inc(model=model)
    REGISTRY.counter(
        "repro_phase_cost_total", "accumulated simulated cost per model"
    ).inc(cost, model=model)
    ops = (
        sum(record.reads_per_proc.values())
        + sum(record.writes_per_proc.values())
        + sum(record.ops_per_proc.values())
    )
    if ops:
        REGISTRY.counter(
            "repro_ops_total", "reads + writes + local ops issued per model"
        ).inc(ops, model=model)
    kappa = 0
    if record.read_queue:
        kappa = max(record.read_queue.values())
    if record.write_queue:
        kappa = max(kappa, max(record.write_queue.values()))
    if kappa:
        REGISTRY.histogram(
            "repro_contention_kappa", "per-phase max cell-queue depth (κ)"
        ).observe(kappa, model=model)
    if faults:
        REGISTRY.counter(
            "repro_fault_events_total", "injected-fault events fired"
        ).inc(faults, model=model)


def record_superstep(
    record: Any, cost: float, faults: int = 0, model: str = "BSP"
) -> None:
    """Account one committed BSP-family superstep into the registry.

    The h-relation is ``max_i max(s_i, r_i)`` — the same quantity the
    ``g*h`` term charges (:func:`repro.core.cost.bsp_cost_terms`).
    ``model`` is the machine's ``model_label`` (``"BSP"`` or ``"MPC"``).
    """
    REGISTRY.counter(
        "repro_phases_total", "committed phases per model"
    ).inc(model=model)
    REGISTRY.counter(
        "repro_phase_cost_total", "accumulated simulated cost per model"
    ).inc(cost, model=model)
    ops = (
        sum(record.work_per_proc.values())
        + sum(record.sent_per_proc.values())
        + sum(record.received_per_proc.values())
    )
    if ops:
        REGISTRY.counter(
            "repro_ops_total", "reads + writes + local ops issued per model"
        ).inc(ops, model=model)
    h = 0
    if record.sent_per_proc:
        h = max(record.sent_per_proc.values())
    if record.received_per_proc:
        h = max(h, max(record.received_per_proc.values()))
    if h:
        REGISTRY.histogram(
            "repro_bsp_h_relation", "per-superstep routed h-relation"
        ).observe(h)
    if faults:
        REGISTRY.counter(
            "repro_fault_events_total", "injected-fault events fired"
        ).inc(faults, model=model)
