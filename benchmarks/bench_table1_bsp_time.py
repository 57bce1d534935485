"""Experiment T1c — Table 1, "Time Lower Bounds for BSP" (q = min{n, p}).

Runs the BSP algorithms over (n, p, g, L) grids, checks dominance over each
cell's bound, that Parity deterministic is Theta-tight, and the L-response
(bounds and costs scale linearly in L at a fixed L/g ratio).
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from benchmarks.common import CellRow, format_dominant, print_rows, summarise_cell, sweep_cache_kwargs
from repro.analysis.parallel_sweep import parallel_sweep
from repro.algorithms.compaction import lac_bsp
from repro.algorithms.or_ import or_bsp
from repro.algorithms.parity import parity_bsp
from repro.core import BSP, BSPParams
from repro.lowerbounds.formulas import bounds_for
from repro.obs import dominant_fractions
from repro.problems import (
    gen_bits,
    gen_sparse_array,
    verify_lac,
    verify_or,
    verify_parity,
)

NS = [2**8, 2**10, 2**12]
P = 64
G, L = 2.0, 16.0


def _run_cell_with_costs(problem: str, variant: str, n: int, p: int, g: float, L_: float):
    """Run one cell on a BSP; return (row, dominant fractions)."""
    bound_entry = bounds_for(table="1c", problem=problem, variant=variant)[0]
    b = BSP(p, BSPParams(g=g, L=L_))
    if problem == "Parity":
        bits = gen_bits(n, seed=n + p)
        r = parity_bsp(b, bits)
        correct = verify_parity(bits, r.value)
    elif problem == "OR":
        bits = gen_bits(n, density=0.05, seed=n + p)
        r = or_bsp(b, bits)
        correct = verify_or(bits, r.value)
    else:
        h = max(1, n // 16)
        arr = gen_sparse_array(n, h, seed=n, exact=True)
        r = lac_bsp(b, arr, h=h)
        correct = verify_lac(arr, r.value, h)
    fractions = dominant_fractions(b)
    row = CellRow(
        problem,
        variant,
        n,
        f"p={p},g={g:g},L={L_:g}",
        r.time,
        bound_entry.fn(n, g, L_, p),
        correct,
        dominant=format_dominant(fractions),
    )
    return row, fractions


def _run_cell(problem: str, variant: str, n: int, p: int, g: float, L_: float) -> CellRow:
    return _run_cell_with_costs(problem, variant, n, p, g, L_)[0]


def run_t1c_point(problem: str, variant: str, n: int):
    """One grid point as a :func:`parallel_sweep` outcome (picklable)."""
    row, fractions = _run_cell_with_costs(problem, variant, n, P, G, L)
    return {
        "measured": row.measured,
        "bound": row.bound,
        "correct": row.correct,
        "dominant_terms": fractions,
    }


def collect_rows():
    grid = {
        "problem": ["LAC", "OR", "Parity"],
        "variant": ["deterministic", "randomized"],
        "n": NS,
    }
    points = parallel_sweep(grid, run_t1c_point, **sweep_cache_kwargs())
    return [
        CellRow(
            p.params["problem"],
            p.params["variant"],
            p.params["n"],
            f"p={P},g={G:g},L={L:g}",
            p.measured,
            p.bound,
            p.correct,
            dominant=format_dominant(p.dominant_terms),
        )
        for p in points
    ]


def L_response():
    """Bounds and measured costs scale linearly in L at fixed L/g."""
    out = []
    for g, L_ in ((2.0, 8.0), (4.0, 16.0), (8.0, 32.0)):
        row = _run_cell("Parity", "deterministic", 2**10, P, g, L_)
        out.append((L_, row.measured, row.bound))
    return out


def main() -> Dict[Tuple[str, str], str]:
    """Print the table; return each cell's verdict (see ``summarise_cell``)."""
    rows = collect_rows()
    verdicts = {}
    for problem in ("LAC", "OR", "Parity"):
        for variant in ("deterministic", "randomized"):
            cell = [r for r in rows if r.problem == problem and r.variant == variant]
            tight = problem == "Parity" and variant == "deterministic"
            verdicts[(problem, variant)] = summarise_cell(cell, tight=tight, band=10.0)
    print_rows('Table 1c: "Time Lower Bounds for BSP" (measured vs bound)', rows, verdicts)
    print()
    print("L-response (Parity det, n=1024, L/g fixed at 4):")
    for L_, measured, bound in L_response():
        print(f"  L={L_:4g}  measured={measured:8.0f}  bound={bound:8.1f}  ratio={measured/bound:5.2f}")
    return verdicts


# --- pytest-benchmark targets ------------------------------------------------

@pytest.mark.parametrize("problem", ["LAC", "OR", "Parity"])
def bench_table1c_cell(benchmark, problem):
    row = benchmark(lambda: _run_cell(problem, "deterministic", NS[-1], P, G, L))
    benchmark.extra_info["simulated_time"] = row.measured
    benchmark.extra_info["bound"] = row.bound
    assert row.correct
    assert row.measured >= 0.3 * row.bound


def bench_table1c_parity_theta_tight(benchmark):
    rows = benchmark(
        lambda: [_run_cell("Parity", "deterministic", n, P, G, L) for n in NS]
    )
    verdict = summarise_cell(rows, tight=True, band=8.0)
    benchmark.extra_info["verdict"] = verdict
    assert verdict == "tight"


def bench_table1c_linear_in_L(benchmark):
    triples = benchmark(L_response)
    (L1, m1, b1), _, (L3, m3, b3) = triples
    assert b3 / b1 == pytest.approx(L3 / L1, rel=0.01)
    assert m3 / m1 == pytest.approx(L3 / L1, rel=0.35)


if __name__ == "__main__":
    main()
