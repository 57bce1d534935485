"""Bench-regression watchdog: diff current bench points against a baseline.

The repo commits its measured trajectory as ``BENCH_*.json`` files (the
scheduler summary, the phase-engine benchmark and the cross-model table).
This module turns those files from archival into *enforced*:
:func:`compare_bench` flattens a baseline and a current measurement into
dotted metric paths, applies noise-aware, direction-aware relative
tolerances, and reports every regression; ``python -m repro bench check``
wires it to the CLI and CI (exit 0 clean, 1 regression, 2 usage).

Noise handling, per metric class:

* **Deterministic metrics** (simulated costs — ``measured``, ``bound``
  — and correctness booleans) get a tight default tolerance: the
  simulators are seeded, so any drift is a real cost-model change.
* **Wall-clock ratios** (``speedup``) get a loose tolerance — they move
  with machine load but are self-normalising.
* **Raw wall-clock numbers** (``timings``, ``throughput``) are reported
  but **never gate** by default: comparing absolute seconds measured on
  the committing machine against a CI runner is noise by construction.
  ``strict_wall=True`` opts them in (with the loose tolerance) for
  same-machine A/B use.
* **Median-of-k** — when the current side is sampled several times (the
  CLI's ``--samples K`` re-collects the sched bench K times), each metric
  compares at its median across samples, so one noisy sample cannot fake
  a regression.

A baseline point missing from the current side fails the check (a
vanished point can hide a regression); a new current point is reported as
informational.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "BenchDelta",
    "RegressionReport",
    "flatten_metrics",
    "metric_direction",
    "compare_bench",
    "load_bench",
    "collect_sched_current",
    "collect_phase_engine_current",
    "collect_cross_model_current",
    "store_outcome_metrics",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WALL_TOLERANCE",
]

#: Relative tolerance for deterministic (simulated-cost) metrics.
DEFAULT_TOLERANCE = 0.01

#: Relative tolerance for wall-clock-derived ratio metrics (speedups).
DEFAULT_WALL_TOLERANCE = 0.6

#: Key fragments marking a metric as wall-clock-derived (noisy).
_WALL_FRAGMENTS = ("timing", "throughput", "speedup", "wall", "seconds", "_s")

#: Key fragments marking raw wall-clock numbers that never gate by default.
_INFO_FRAGMENTS = ("timing", "throughput", "wall", "seconds")

#: Keys that are run configuration, not measurements — never compared.
_SKIP_KEYS = {"jobs", "grid", "n", "p", "seed", "points", "schema", "version"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and not (isinstance(value, float) and math.isnan(value))


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    k = len(ordered)
    mid = k // 2
    if k % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def flatten_metrics(data: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten a bench payload into ``{"dotted.path": number | bool}``.

    Handles both committed schemas:

    * outcome maps — ``{key: outcome}`` where an outcome dict carries
      ``measured`` / ``correct`` / ``bound`` (plus config echo that is
      skipped), as :func:`store_outcome_metrics` builds;
    * summary benches — nested dicts of numbers/booleans (e.g.
      ``BENCH_sched.json``'s ``timings`` / ``throughput`` / ``speedup``).

    Config keys (:data:`_SKIP_KEYS`) are dropped.  A numeric list leaf
    collapses to its median (the median-of-k hook: pass K samples as a
    list and the comparison sees their median).
    """
    out: Dict[str, Any] = {}
    if isinstance(data, Mapping):
        is_outcome = "measured" in data  # sweep outcomes always carry it
        for key, value in data.items():
            key = str(key)
            if key in _SKIP_KEYS:
                continue
            if is_outcome and key not in ("measured", "correct", "bound"):
                continue  # outcome dicts: only the measurements, not the echo
            path = f"{prefix}.{key}" if prefix else key
            out.update(flatten_metrics(value, path))
        return out
    if isinstance(data, bool):
        if prefix:
            out[prefix] = data
        return out
    if _is_number(data):
        if prefix:
            out[prefix] = float(data)
        return out
    if isinstance(data, (list, tuple)):
        numbers = [float(v) for v in data if _is_number(v)]
        if prefix and numbers and len(numbers) == len(data):
            out[prefix] = _median(numbers)
        return out
    return out  # strings and other leaves are not measurements


def metric_direction(path: str) -> str:
    """The regression direction of a metric path.

    ``"higher"`` — bigger is better (throughput, speedup); ``"lower"`` —
    smaller is better (timings, measured cost, bounds); ``"exact"`` —
    two-sided (anything unrecognised drifting beyond tolerance flags).
    """
    lowered = path.lower()
    if "throughput" in lowered or "speedup" in lowered:
        return "higher"
    if any(f in lowered for f in ("timing", "seconds", "wall", "measured", "time", "cost", "bound")):
        return "lower"
    return "exact"


def _is_wall(path: str) -> bool:
    lowered = path.lower()
    return any(f in lowered for f in _WALL_FRAGMENTS)


def _is_informational(path: str) -> bool:
    lowered = path.lower()
    return any(f in lowered for f in _INFO_FRAGMENTS)


@dataclass(frozen=True)
class BenchDelta:
    """One metric's baseline-vs-current verdict.

    ``status`` is ``"ok"``, ``"improved"``, ``"regression"``, ``"info"``
    (wall-clock metric outside the gate), ``"missing"`` (baseline point
    absent from current — fails the check) or ``"new"`` (current-only).
    """

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    direction: str
    tolerance: float
    status: str

    @property
    def rel_change(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0:
            return None if self.current == 0 else math.inf
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass(frozen=True)
class RegressionReport:
    """Everything :func:`compare_bench` decided, plus the verdict."""

    baseline_source: str
    current_source: str
    deltas: Tuple[BenchDelta, ...] = ()

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.status in ("regression", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for d in self.deltas:
            out[d.status] = out.get(d.status, 0) + 1
        return out

    def render_markdown(self) -> str:
        """The check as a markdown report (what CI uploads as an artifact)."""
        counts = self.counts
        verdict = "PASS" if self.ok else "REGRESSION"
        lines = [
            f"# Bench check: {verdict}",
            "",
            f"* baseline: `{self.baseline_source}`",
            f"* current: `{self.current_source}`",
            f"* metrics: {len(self.deltas)} compared — "
            + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())),
            "",
            "| metric | baseline | current | change | direction | tolerance | status |",
            "|---|---|---|---|---|---|---|",
        ]
        def fmt(v: Optional[float]) -> str:
            if v is None:
                return "-"
            if float(v).is_integer() and abs(v) < 1e15:
                return str(int(v))
            return f"{v:.6g}"
        ordered = sorted(
            self.deltas,
            key=lambda d: ({"regression": 0, "missing": 1}.get(d.status, 2), d.metric),
        )
        for d in ordered:
            rel = d.rel_change
            change = "-" if rel is None else f"{rel:+.1%}"
            lines.append(
                f"| `{d.metric}` | {fmt(d.baseline)} | {fmt(d.current)} "
                f"| {change} | {d.direction} | {d.tolerance:.0%} | **{d.status}** |"
            )
        lines.append("")
        return "\n".join(lines)


def compare_bench(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    strict_wall: bool = False,
    baseline_source: str = "baseline",
    current_source: str = "current",
) -> RegressionReport:
    """Diff two bench payloads into a :class:`RegressionReport`.

    ``baseline`` / ``current`` are parsed ``BENCH_*.json`` payloads (any
    committed schema); they are flattened by :func:`flatten_metrics` and
    compared path by path with per-class tolerances (module docstring).
    """
    if not 0 <= tolerance:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if not 0 <= wall_tolerance:
        raise ValueError(f"wall_tolerance must be >= 0, got {wall_tolerance}")
    base = flatten_metrics(baseline)
    cur = flatten_metrics(current)
    deltas: List[BenchDelta] = []
    for path in sorted(set(base) | set(cur)):
        b, c = base.get(path), cur.get(path)
        if b is None:
            deltas.append(BenchDelta(path, None,
                                     float(c) if not isinstance(c, bool) else float(bool(c)),
                                     "-", 0.0, "new"))
            continue
        if c is None:
            deltas.append(BenchDelta(path,
                                     float(b) if not isinstance(b, bool) else float(bool(b)),
                                     None, "-", 0.0, "missing"))
            continue
        if isinstance(b, bool) or isinstance(c, bool):
            ok = bool(c) or not bool(b)  # true -> false is the only failure
            deltas.append(BenchDelta(path, float(bool(b)), float(bool(c)),
                                     "higher", 0.0,
                                     "ok" if ok else "regression"))
            continue
        wall = _is_wall(path)
        tol = wall_tolerance if wall else tolerance
        direction = metric_direction(path)
        if b == 0:
            drift = 0.0 if c == 0 else math.inf
        else:
            drift = (c - b) / abs(b)
        if direction == "higher":
            bad, better = drift < -tol, drift > tol
        elif direction == "lower":
            bad, better = drift > tol, drift < -tol
        else:
            bad, better = abs(drift) > tol, False
        if _is_informational(path) and not strict_wall:
            status = "info"
        elif bad:
            status = "regression"
        elif better:
            status = "improved"
        else:
            status = "ok"
        deltas.append(BenchDelta(path, float(b), float(c), direction, tol, status))
    return RegressionReport(
        baseline_source=baseline_source,
        current_source=current_source,
        deltas=tuple(deltas),
    )


def load_bench(path: str) -> Dict[str, Any]:
    """Parse one ``BENCH_*.json`` file (any committed schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return dict(data)


def _merge_samples(samples: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Median-of-k merge: numeric leaves -> lists (flattened to medians),
    booleans -> all-of, structure from the first sample."""
    if len(samples) == 1:
        return dict(samples[0])
    first = samples[0]
    out: Dict[str, Any] = {}
    for key, value in first.items():
        values = [s.get(key) for s in samples if key in s]
        if isinstance(value, Mapping):
            out[key] = _merge_samples([v for v in values if isinstance(v, Mapping)])
        elif isinstance(value, bool):
            out[key] = all(bool(v) for v in values)
        elif _is_number(value):
            out[key] = [float(v) for v in values if _is_number(v)]
        else:
            out[key] = value
    return out


def collect_sched_current(samples: int = 1, jobs: Optional[int] = None) -> Dict[str, Any]:
    """Re-measure the sched A/B bench ``samples`` times (median-of-k).

    Requires the ``benchmarks`` tree on the path (the CLI runs with
    ``PYTHONPATH=src:.``); numeric leaves come back as K-sample lists so
    :func:`flatten_metrics` compares their medians.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    from benchmarks.bench_sched import collect

    return _merge_samples([collect(jobs=jobs) for _ in range(samples)])


def collect_phase_engine_current(
    samples: int = 1, jobs: Optional[int] = None
) -> Dict[str, Any]:
    """Re-measure the phase-engine A/B bench ``samples`` times (median-of-k).

    The current side for ``BENCH_phase_engine.json`` baselines (the
    ``"engines"`` schema): per-engine wall numbers are informational,
    the reference-vs-vector ``speedup`` ratios gate at the loose wall
    tolerance, and the large-n ``table1`` simulated costs gate at the
    tight deterministic tolerance.  Requires the ``benchmarks`` tree on
    the path, like :func:`collect_sched_current`.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    from benchmarks.bench_phase_engine import collect

    return _merge_samples([collect(jobs=jobs) for _ in range(samples)])


def collect_cross_model_current(
    samples: int = 1, jobs: Optional[int] = None
) -> Dict[str, Any]:
    """Re-measure the cross-model table ``samples`` times (median-of-k).

    The current side for ``BENCH_cross_model.json`` baselines (the
    ``"cells"`` schema): every cell's ``measured`` / ``bound`` / ``correct``
    is a deterministic simulated cost, so the whole payload gates at the
    tight 1% tolerance, and the MPC/PEM ``engines_agree_*`` booleans fail
    the check on any true -> false flip.  Requires the ``benchmarks`` tree
    on the path, like :func:`collect_sched_current`.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    from benchmarks.bench_cross_model import collect

    return _merge_samples([collect(jobs=jobs) for _ in range(samples)])


def store_outcome_metrics(store: Any, limit: Optional[int] = None) -> Dict[str, Any]:
    """Flattenable payload from a :class:`repro.sched.store.ResultStore`.

    Maps each stored key to its outcome dict, so store-backed results diff
    point by point (``<key>.measured`` paths).
    """
    out: Dict[str, Any] = {}
    for i, key in enumerate(sorted(store.keys())):
        if limit is not None and i >= limit:
            break
        outcome = store.get_outcome(key)
        if isinstance(outcome, Mapping):
            out[key] = dict(outcome)
    return out
