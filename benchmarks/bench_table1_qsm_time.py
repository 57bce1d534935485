"""Experiment T1a — Table 1, "Time Lower Bounds for QSM".

For each of the six cells (LAC / OR / Parity x deterministic / randomized)
this bench runs the matching Section 8 upper-bound algorithm on the QSM
simulator over an ``n`` sweep, prints the measured simulated time next to
the printed bound formula, and summarises the shape verdict.

Expected shapes (paper):

* Parity det: measured ``O(g log n / log log g)`` vs bound
  ``g log n / log g`` — near-tight, a ``log g / log log g`` factor apart.
  (With unit-time concurrent reads the pair is Theta-tight; see the
  concurrent-reads rows.)
* OR det: tournament ``O(g log n / log g)`` vs ``g log n /(loglog n+log g)``.
* LAC det: prefix compaction ``O(g log n)`` vs ``g sqrt(log n / ...)``;
  LAC rand: dart throwing vs ``g loglog n / log g`` — both leave the honest
  gaps the paper reports.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from benchmarks.common import CellRow, format_dominant, ns_from_env, print_rows, summarise_cell, sweep_cache_kwargs
from repro.analysis.parallel_sweep import parallel_sweep
from repro.algorithms.compaction import lac_dart, lac_prefix
from repro.algorithms.or_ import or_tree_writes
from repro.algorithms.parity import parity_blocks
from repro.core import QSM, QSMParams
from repro.lowerbounds.formulas import bounds_for, qsm_parity_det_time_concurrent_reads
from repro.obs import dominant_fractions
from repro.problems import (
    gen_bits,
    gen_sparse_array,
    verify_lac,
    verify_or,
    verify_parity,
)

NS = ns_from_env([2**8, 2**10, 2**12])
G = 8.0


def _run_cell_with_costs(problem: str, variant: str, n: int, g: float):
    """Run one cell on a QSM; return (row, dominant fractions)."""
    bound_entry = bounds_for(table="1a", problem=problem, variant=variant)[0]
    m = QSM(QSMParams(g=g))
    if problem == "Parity":
        bits = gen_bits(n, seed=n)
        r = parity_blocks(m, bits)
        correct = verify_parity(bits, r.value)
        bound = bound_entry.fn(n, g)
    elif problem == "OR":
        bits = gen_bits(n, density=0.05, seed=n)
        r = or_tree_writes(m, bits)
        correct = verify_or(bits, r.value)
        bound = bound_entry.fn(n, g)
    else:  # LAC
        h = max(1, n // 16)
        arr = gen_sparse_array(n, h, seed=n, exact=True)
        if variant == "randomized":
            r = lac_dart(m, arr, h=h, seed=n)
        else:
            r = lac_prefix(m, arr, h=h)
        correct = verify_lac(arr, r.value, h)
        bound = bound_entry.fn(n, g)
    fractions = dominant_fractions(m)
    row = CellRow(
        problem, variant, n, f"g={g:g}", r.time, bound, correct,
        dominant=format_dominant(fractions),
    )
    return row, fractions


def _run_cell(problem: str, variant: str, n: int, g: float) -> CellRow:
    return _run_cell_with_costs(problem, variant, n, g)[0]


def run_t1a_point(problem: str, variant: str, n: int):
    """One grid point as a :func:`parallel_sweep` outcome (picklable).

    ``dominant_terms`` rides along in the outcome's extras, so the
    ``BENCH_t1a_qsm_time.json`` cache records why each point cost what it
    did (e.g. a kappa-bound vs bandwidth-bound crossover as ``g`` varies).
    """
    row, fractions = _run_cell_with_costs(problem, variant, n, G)
    return {
        "measured": row.measured,
        "bound": row.bound,
        "correct": row.correct,
        "dominant_terms": fractions,
    }


def collect_rows():
    # The main 3x2xNS grid runs through parallel_sweep: ``--jobs N`` (or
    # REPRO_JOBS) fans the cells out over worker processes.  REPRO_STORE
    # persists finished points to the shared content-addressed result store
    # (also visible to `python -m repro campaign run table1`).
    grid = {
        "problem": ["LAC", "OR", "Parity"],
        "variant": ["deterministic", "randomized"],
        "n": NS,
    }
    points = parallel_sweep(grid, run_t1a_point, **sweep_cache_kwargs())
    return [
        CellRow(
            p.params["problem"],
            p.params["variant"],
            p.params["n"],
            f"g={G:g}",
            p.measured,
            p.bound,
            p.correct,
            dominant=format_dominant(p.dominant_terms),
        )
        for p in points
    ]


def lac_nproc_rows():
    """Table 1a's second LAC randomized entry: Omega(g log* n) with n
    processors (Theorem 6.2's log*-term at p = n)."""
    from repro.lowerbounds.formulas import qsm_lac_rand_time_nproc

    rows = []
    for n in NS:
        h = max(1, n // 16)
        arr = gen_sparse_array(n, h, seed=n, exact=True)
        m = QSM(QSMParams(g=G))
        r = lac_dart(m, arr, h=h, seed=n)
        rows.append(
            CellRow(
                "LAC(n-proc)",
                "randomized",
                n,
                f"g={G:g},p=n",
                r.time,
                qsm_lac_rand_time_nproc(n, G),
                verify_lac(arr, r.value, h),
                dominant=format_dominant(dominant_fractions(m)),
            )
        )
    return rows


def concurrent_reads_rows():
    """The Theta entry of Table 1a: parity with unit-time concurrent reads."""
    rows = []
    for n in NS:
        g = 8.0
        m = QSM(QSMParams(g=g, unit_time_concurrent_reads=True))
        bits = gen_bits(n, seed=n)
        r = parity_blocks(m, bits)
        rows.append(
            CellRow(
                "Parity(CR)",
                "deterministic",
                n,
                f"g={g:g}",
                r.time,
                qsm_parity_det_time_concurrent_reads(n, g),
                verify_parity(bits, r.value),
                dominant=format_dominant(dominant_fractions(m)),
            )
        )
    return rows


def main() -> Dict[Tuple[str, str], str]:
    """Print the table; return each cell's verdict (see ``summarise_cell``)."""
    rows = collect_rows() + lac_nproc_rows() + concurrent_reads_rows()
    verdicts = {}
    for problem in ("LAC", "LAC(n-proc)", "OR", "Parity", "Parity(CR)"):
        for variant in ("deterministic", "randomized"):
            cell = [r for r in rows if r.problem == problem and r.variant == variant]
            if not cell:
                continue
            tight = problem == "Parity(CR)"
            verdicts[(problem, variant)] = summarise_cell(cell, tight=tight, band=8.0)
    print_rows('Table 1a: "Time Lower Bounds for QSM" (measured vs bound)', rows, verdicts)
    return verdicts


# --- pytest-benchmark targets (one per problem family) ----------------------

@pytest.mark.parametrize("problem", ["LAC", "OR", "Parity"])
def bench_table1a_deterministic(benchmark, problem):
    row = benchmark(lambda: _run_cell(problem, "deterministic", NS[-1], G))
    benchmark.extra_info["simulated_time"] = row.measured
    benchmark.extra_info["bound"] = row.bound
    assert row.correct
    assert row.measured >= 0.5 * row.bound  # dominance with constant 1/2


@pytest.mark.parametrize("problem", ["LAC", "OR", "Parity"])
def bench_table1a_randomized(benchmark, problem):
    row = benchmark(lambda: _run_cell(problem, "randomized", NS[-1], G))
    benchmark.extra_info["simulated_time"] = row.measured
    benchmark.extra_info["bound"] = row.bound
    assert row.correct
    assert row.measured >= 0.5 * row.bound


def bench_table1a_lac_nproc_log_star(benchmark):
    rows = benchmark(lac_nproc_rows)
    assert all(r.correct for r in rows)
    assert all(r.measured >= r.bound for r in rows)


def bench_table1a_parity_concurrent_reads_tight(benchmark):
    rows = benchmark(concurrent_reads_rows)
    assert all(r.correct for r in rows)
    verdict = summarise_cell(rows, tight=True, band=6.0)
    benchmark.extra_info["verdict"] = verdict
    assert verdict == "tight"


if __name__ == "__main__":
    main()
