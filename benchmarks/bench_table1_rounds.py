"""Experiment T1d — Table 1, "Number of Rounds for p-processor Algorithms".

For every cell of the rounds sub-table, run the rounds-mode algorithm
(local blocks + budget-wide trees), audit that every phase fits the round
budget of Section 2.3, and compare the audited round count against the
bound formula.  The paper marks six of the nine cells Theta; those must
come out in a bounded ratio band.  This also covers the S8-rounds claim
that simple prefix-sums-style algorithms match the round lower bounds.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from benchmarks.common import CellRow, format_dominant, print_rows, summarise_cell, sweep_cache_kwargs
from repro.analysis.parallel_sweep import parallel_sweep
from repro.obs import dominant_fractions
from repro.algorithms.compaction import lac_bsp, lac_prefix_rounds
from repro.algorithms.or_ import or_bsp, or_rounds
from repro.algorithms.parity import parity_bsp, parity_rounds
from repro.core import BSP, QSM, SQSM, BSPParams, QSMParams, SQSMParams
from repro.core.rounds import RoundAuditor
from repro.lowerbounds.formulas import bounds_for
from repro.problems import (
    gen_bits,
    gen_sparse_array,
    verify_lac,
    verify_or,
    verify_parity,
)

SWEEP = [(2**10, 2**5), (2**12, 2**6), (2**14, 2**7)]  # (n, p): n/p = 32..128
#: The sweep is a paired (n, p) diagonal, not a cartesian grid; the sweep
#: grid iterates over n and looks the matching p up here.
P_FOR = {n: p for n, p in SWEEP}
G, L = 4.0, 16.0


def _machine(model: str, p: int):
    if model == "QSM":
        return QSM(QSMParams(g=G))
    if model == "s-QSM":
        return SQSM(SQSMParams(g=G))
    return BSP(p, BSPParams(g=G, L=L))


def _bound(model: str, problem: str, n: int, p: int) -> float:
    entry = bounds_for(table="1d", model=model, problem=problem)[0]
    if model == "BSP":
        return entry.fn(n, G, L, p)
    return entry.fn(n, G, p)


def _run_cell_with_costs(model: str, problem: str, n: int, p: int):
    """Run one rounds cell; return (row, dominant fractions)."""
    m = _machine(model, p)
    aud = RoundAuditor(m, n=n, p=p, constant=1.0)
    if problem == "Parity":
        bits = gen_bits(n, seed=n)
        r = parity_bsp(m, bits) if model == "BSP" else parity_rounds(m, bits, p=p)
        correct = verify_parity(bits, r.value)
    elif problem == "OR":
        bits = gen_bits(n, density=0.01, seed=n)
        r = or_bsp(m, bits) if model == "BSP" else or_rounds(m, bits, p=p)
        correct = verify_or(bits, r.value)
    else:  # LAC
        h = max(1, n // 64)
        arr = gen_sparse_array(n, h, seed=n, exact=True)
        if model == "BSP":
            r = lac_bsp(m, arr, h=h)
        else:
            r = lac_prefix_rounds(m, arr, p=p, h=h)
        correct = verify_lac(arr, r.value, h)
    aud.audit()
    correct = correct and aud.computes_in_rounds
    fractions = dominant_fractions(m)
    row = CellRow(
        problem, model, n, f"p={p}", float(aud.rounds), _bound(model, problem, n, p),
        correct, dominant=format_dominant(fractions),
    )
    return row, fractions


def _run_cell(model: str, problem: str, n: int, p: int) -> CellRow:
    return _run_cell_with_costs(model, problem, n, p)[0]


def run_t1d_point(model: str, problem: str, n: int):
    """One grid point as a :func:`parallel_sweep` outcome (picklable)."""
    row, fractions = _run_cell_with_costs(model, problem, n, P_FOR[n])
    return {
        "measured": row.measured,
        "bound": row.bound,
        "correct": row.correct,
        "dominant_terms": fractions,
    }


def collect_rows():
    grid = {
        "problem": ["LAC", "OR", "Parity"],
        "model": ["QSM", "s-QSM", "BSP"],
        "n": [n for n, _ in SWEEP],
    }
    points = parallel_sweep(grid, run_t1d_point, **sweep_cache_kwargs())
    return [
        CellRow(
            p.params["problem"],
            p.params["model"],
            p.params["n"],
            f"p={P_FOR[p.params['n']]}",
            p.measured,
            p.bound,
            p.correct,
            dominant=format_dominant(p.dominant_terms),
        )
        for p in points
    ]


def main() -> Dict[Tuple[str, str], str]:
    """Print the table; return each cell's verdict (see ``summarise_cell``)."""
    rows = collect_rows()
    verdicts = {}
    for problem in ("LAC", "OR", "Parity"):
        for model in ("QSM", "s-QSM", "BSP"):
            cell = [r for r in rows if r.problem == problem and r.variant == model]
            entry = bounds_for(table="1d", model=model, problem=problem)[0]
            verdicts[(problem, model)] = summarise_cell(cell, tight=entry.tight, band=10.0)
    print_rows(
        'Table 1d: "Number of Rounds for p-processor Algorithms" '
        "(audited rounds vs bound)",
        rows,
        verdicts,
    )
    return verdicts


# --- pytest-benchmark targets ------------------------------------------------

@pytest.mark.parametrize("model", ["QSM", "s-QSM", "BSP"])
@pytest.mark.parametrize("problem", ["LAC", "OR", "Parity"])
def bench_table1d_cell(benchmark, model, problem):
    n, p = SWEEP[1]
    row = benchmark(lambda: _run_cell(model, problem, n, p))
    benchmark.extra_info["rounds"] = row.measured
    benchmark.extra_info["bound"] = row.bound
    assert row.correct
    assert row.measured >= 0.5 * row.bound


@pytest.mark.parametrize("model,problem", [
    ("QSM", "OR"), ("s-QSM", "OR"), ("BSP", "OR"),
    ("s-QSM", "Parity"), ("BSP", "Parity"),
])
def bench_table1d_theta_cells_tight(benchmark, model, problem):
    rows = benchmark(lambda: [_run_cell(model, problem, n, p) for n, p in SWEEP])
    verdict = summarise_cell(rows, tight=True, band=10.0)
    benchmark.extra_info["verdict"] = verdict
    assert verdict == "tight"


if __name__ == "__main__":
    main()
