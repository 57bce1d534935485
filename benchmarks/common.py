"""Shared plumbing for the Table 1 benchmark harness.

Every bench pairs one Table 1 cell (a :class:`repro.lowerbounds.formulas.Bound`)
with the best matching Section 8 upper-bound algorithm, sweeps the input
size, and emits rows::

    problem | variant | n | params | measured | bound | ratio | verdict

``measured`` is the *simulated model cost* (time or rounds) of the verified
algorithm run; ``bound`` is the formula value with its hidden constant at 1.
The verdict summarises the shape check: ``dominates`` (Omega respected),
``tight`` (ratio band bounded — expected exactly for the paper's Theta
entries), or ``gap`` (upper and lower bounds genuinely apart, as the paper
says for e.g. randomized LAC).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import render_table
from repro.analysis.fit import bounded_ratio, dominance_constant

__all__ = [
    "CellRow",
    "summarise_cell",
    "print_rows",
    "format_dominant",
    "HEADERS",
    "PerfRow",
    "print_perf_rows",
    "PERF_HEADERS",
    "ns_from_env",
    "sweep_cache_kwargs",
]

HEADERS = [
    "problem", "variant", "n", "params", "measured", "bound", "ratio",
    "dominant", "verdict",
]


def format_dominant(fractions: Optional[Dict[str, float]]) -> str:
    """Compact rendering of dominant-term fractions for table cells.

    ``{"kappa": 0.62, "g*m_rw": 0.38}`` -> ``"kappa 62%, g*m_rw 38%"``
    (largest share first; shares under 1% are dropped to keep rows short).
    """
    if not fractions:
        return "-"
    parts = [
        f"{term} {share:.0%}"
        for term, share in sorted(fractions.items(), key=lambda kv: -kv[1])
        if share >= 0.01
    ]
    return ", ".join(parts) if parts else "-"

PERF_HEADERS = ["path", "n", "ops", "seconds", "ops/sec", "speedup", "note"]


def ns_from_env(default: Sequence[int], env: str = "REPRO_BENCH_NS") -> List[int]:
    """Input-size sweep for a bench, overridable via an env var.

    ``REPRO_BENCH_NS=64,256`` shrinks any bench that opts in to a tiny grid
    — used by CI's smoke run so a Table 1 bench exercises the full pipeline
    without the full sweep.
    """
    raw = os.environ.get(env)
    if not raw:
        return list(default)
    ns = [int(tok) for tok in raw.replace(",", " ").split()]
    if not ns or any(n < 1 for n in ns):
        raise ValueError(f"{env} must list positive ints, got {raw!r}")
    return ns


def sweep_cache_kwargs() -> Dict[str, object]:
    """Result-persistence kwargs for a driver's ``parallel_sweep`` call.

    One switch point for all drivers: ``REPRO_STORE=<dir>`` routes
    outcomes into the shared content-addressed result store
    (:class:`repro.sched.store.ResultStore`), where they are also visible
    to ``python -m repro campaign`` runs of the same points; otherwise
    nothing persists.
    """
    store_dir = os.environ.get("REPRO_STORE")
    if store_dir:
        from repro.sched.store import ResultStore

        return {"store": ResultStore(store_dir)}
    return {}


@dataclass
class PerfRow:
    """One wall-clock measurement of a phase-engine code path."""

    path: str
    n: int
    ops: int
    seconds: float
    note: str = ""

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else float("inf")


def print_perf_rows(title: str, rows: Sequence[PerfRow], baseline: Optional[str] = None) -> str:
    """Render ops/sec rows; ``speedup`` is relative to the named baseline path."""
    base_by_n: Dict[int, float] = {}
    if baseline is not None:
        for r in rows:
            if r.path == baseline:
                base_by_n[r.n] = r.ops_per_sec
    table_rows = []
    for r in rows:
        base = base_by_n.get(r.n)
        speedup = f"{r.ops_per_sec / base:.2f}x" if base else "-"
        table_rows.append(
            [r.path, r.n, r.ops, round(r.seconds, 4), round(r.ops_per_sec), speedup, r.note]
        )
    out = render_table(PERF_HEADERS, table_rows, title=title)
    print(out)
    return out


@dataclass
class CellRow:
    problem: str
    variant: str
    n: int
    params: str
    measured: float
    bound: float
    correct: bool
    #: Dominant-term rendering ("kappa 62%, g*m_rw 38%"); "-" when the run
    #: did not record cost provenance.  See repro.obs / format_dominant.
    dominant: str = "-"

    @property
    def ratio(self) -> float:
        return self.measured / self.bound if self.bound else float("inf")


def summarise_cell(rows: Sequence[CellRow], tight: bool, band: float = 6.0) -> str:
    """One verdict for all sweep points of a table cell."""
    if not all(r.correct for r in rows):
        return "WRONG-ANSWER"
    measured = [r.measured for r in rows]
    bounds = [r.bound for r in rows]
    c = dominance_constant(measured, bounds)
    if c < 0.1:
        return f"VIOLATION(c={c:.2f})"
    within, spread = bounded_ratio(measured, bounds, band=band)
    if within:
        return "tight" if tight else f"dominates(band={spread:.1f})"
    return f"gap(spread={spread:.1f})"


def failing_verdicts(verdicts: Dict[tuple, str]) -> List[str]:
    """The cells whose verdict says the reproduction is broken — a wrong
    answer, or a measured cost under the lower bound — as ``cell: verdict``."""
    return [
        f"{'/'.join(map(str, cell))}: {verdict}"
        for cell, verdict in verdicts.items()
        if verdict == "WRONG-ANSWER" or verdict.startswith("VIOLATION")
    ]


def print_rows(title: str, rows: Sequence[CellRow], verdicts: Dict[tuple, str]) -> str:
    table_rows = []
    for r in rows:
        table_rows.append(
            [
                r.problem,
                r.variant,
                r.n,
                r.params,
                r.measured,
                round(r.bound, 2),
                round(r.ratio, 2),
                r.dominant,
                verdicts.get((r.problem, r.variant), "?"),
            ]
        )
    out = render_table(HEADERS, table_rows, title=title)
    print(out)
    return out
