"""Experiment T1b — Table 1, "Time Lower Bounds for s-QSM".

Same protocol as T1a on the s-QSM simulator.  The headline cell is Parity
deterministic: the paper marks it Theta(g log n), and the binary parity
tree must sit in a bounded ratio band over the whole sweep.  The bench also
verifies the linear-in-g response all six formulas share on this model.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from benchmarks.common import CellRow, format_dominant, print_rows, summarise_cell, sweep_cache_kwargs
from repro.analysis.parallel_sweep import parallel_sweep
from repro.algorithms.compaction import lac_dart, lac_prefix
from repro.algorithms.or_ import or_tree_writes
from repro.algorithms.parity import parity_tree
from repro.core import SQSM, SQSMParams
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
G = 4.0


def _run_cell_with_costs(problem: str, variant: str, n: int, g: float):
    """Run one cell on an s-QSM; return (row, dominant fractions)."""
    bound_entry = bounds_for(table="1b", problem=problem, variant=variant)[0]
    m = SQSM(SQSMParams(g=g))
    if problem == "Parity":
        bits = gen_bits(n, seed=n)
        r = parity_tree(m, bits)
        correct = verify_parity(bits, r.value)
    elif problem == "OR":
        bits = gen_bits(n, density=0.05, seed=n)
        r = or_tree_writes(m, bits)
        correct = verify_or(bits, r.value)
    else:
        h = max(1, n // 16)
        arr = gen_sparse_array(n, h, seed=n, exact=True)
        if variant == "randomized":
            r = lac_dart(m, arr, h=h, seed=n)
        else:
            r = lac_prefix(m, arr, h=h)
        correct = verify_lac(arr, r.value, h)
    fractions = dominant_fractions(m)
    row = CellRow(
        problem, variant, n, f"g={g:g}", r.time, bound_entry.fn(n, g), correct,
        dominant=format_dominant(fractions),
    )
    return row, fractions


def _run_cell(problem: str, variant: str, n: int, g: float) -> CellRow:
    return _run_cell_with_costs(problem, variant, n, g)[0]


def run_t1b_point(problem: str, variant: str, n: int):
    """One grid point as a :func:`parallel_sweep` outcome (picklable)."""
    row, fractions = _run_cell_with_costs(problem, variant, n, G)
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
    points = parallel_sweep(grid, run_t1b_point, **sweep_cache_kwargs())
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


def g_response():
    """All s-QSM bounds and all measured costs scale linearly in g."""
    out = []
    for g in (2.0, 4.0, 8.0):
        row = _run_cell("Parity", "deterministic", 2**10, g)
        out.append((g, row.measured, row.bound))
    return out


def main() -> Dict[Tuple[str, str], str]:
    """Print the table; return each cell's verdict (see ``summarise_cell``)."""
    rows = collect_rows()
    verdicts = {}
    for problem in ("LAC", "OR", "Parity"):
        for variant in ("deterministic", "randomized"):
            cell = [r for r in rows if r.problem == problem and r.variant == variant]
            tight = problem == "Parity" and variant == "deterministic"
            verdicts[(problem, variant)] = summarise_cell(cell, tight=tight, band=8.0)
    print_rows('Table 1b: "Time Lower Bounds for s-QSM" (measured vs bound)', rows, verdicts)
    print()
    print("g-response (Parity det, n=1024):")
    for g, measured, bound in g_response():
        print(f"  g={g:4g}  measured={measured:8.0f}  bound={bound:8.1f}  ratio={measured/bound:5.2f}")
    return verdicts


# --- pytest-benchmark targets ------------------------------------------------

@pytest.mark.parametrize("problem", ["LAC", "OR", "Parity"])
@pytest.mark.parametrize("variant", ["deterministic", "randomized"])
def bench_table1b_cell(benchmark, problem, variant):
    row = benchmark(lambda: _run_cell(problem, variant, NS[-1], G))
    benchmark.extra_info["simulated_time"] = row.measured
    benchmark.extra_info["bound"] = row.bound
    assert row.correct
    assert row.measured >= 0.5 * row.bound


def bench_table1b_parity_theta_tight(benchmark):
    rows = benchmark(
        lambda: [_run_cell("Parity", "deterministic", n, G) for n in NS]
    )
    verdict = summarise_cell(rows, tight=True, band=4.0)
    benchmark.extra_info["verdict"] = verdict
    assert verdict == "tight"


def bench_table1b_linear_in_g(benchmark):
    triples = benchmark(g_response)
    (g1, m1, b1), _, (g3, m3, b3) = triples
    assert m3 / m1 == pytest.approx((g3 / g1), rel=0.01)
    assert b3 / b1 == pytest.approx((g3 / g1), rel=0.01)


if __name__ == "__main__":
    main()
