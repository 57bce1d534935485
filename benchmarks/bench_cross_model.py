"""Experiment XMODEL — the cross-model Table 1.

One table per problem (Parity, OR, ListRank), one row per model:

    QSM | s-QSM | QSM(g,d) | BSP | PRAM (CRCW) | MPC | PEM

Every row runs the best matching upper-bound algorithm on that model's
simulator and prints the measured simulated cost next to the encoded lower
bound (``repro.lowerbounds.formulas``).  The point of the table is the 1998
paper's thesis extended past 1998: the *same* problems, executed through
the *same* ``phase()`` / ``superstep()`` API, separate cleanly by what each
model charges for — contention (QSM family), latency (BSP), nothing (CRCW
PRAM), per-round message capacity (MPC), block transfers (PEM).

Measured/bound units are per-row: model time for the QSM family and BSP,
unit steps for the PRAM, effective rounds for MPC
(:func:`repro.core.cost.mpc_round_cost`), parallel block I/Os for PEM
(:func:`repro.core.cost.pem_phase_cost`).  Bounds are evaluated at each
row's machine parameters; the regimes are chosen so the bound premises
hold:

* MPC runs ``p = n/s`` machines so the input starts block-distributed at
  the local-memory limit — the regime of the ``log_s n`` fan-in bound.
* PEM bounds are evaluated at ``p = ceil(n/B)`` (one processor per input
  block), the full-parallelism regime its tree algorithms use.
* QSM(g,d) rows reuse the QSM bounds: the QSM(g,d) charges
  ``d * kappa >= kappa``, so every QSM lower bound transfers verbatim.
* ListRank rows for the 1998 models use the parity bounds, carried over by
  the paper's size-preserving parity -> list-ranking reduction
  (:mod:`repro.algorithms.reductions`).

Run as ``python -m repro xmodel`` (honours ``--jobs``), or under ``pytest
benchmarks/`` for the asserting targets.  ``collect()`` emits the committed
``BENCH_cross_model.json`` baseline that ``python -m repro bench check``
gates on (deterministic simulated costs: 1% tolerance), including the
MPC/PEM reference-vs-vector engine bit-equality bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from benchmarks.common import (
    CellRow,
    format_dominant,
    ns_from_env,
    print_rows,
    summarise_cell,
    sweep_cache_kwargs,
)
from repro.algorithms.list_ranking import list_rank, list_rank_bsp
from repro.algorithms.mpc import list_rank_mpc, or_mpc, parity_mpc
from repro.algorithms.or_ import or_bsp, or_tree_writes
from repro.algorithms.parity import parity_blocks, parity_bsp, parity_tree
from repro.algorithms.pram_algos import or_crcw, parity_crcw
from repro.analysis.parallel_sweep import default_jobs, parallel_sweep
from repro.core import (
    BSP,
    BSPParams,
    PRAM,
    PRAMParams,
    QSM,
    QSMGD,
    QSMGDParams,
    QSMParams,
    SQSM,
    SQSMParams,
    have_numpy,
)
from repro.lowerbounds.formulas import (
    bsp_or_det_time,
    bsp_parity_det_time,
    mpc_listrank_rounds,
    mpc_or_rounds,
    mpc_parity_rounds,
    pem_listrank_io,
    pem_scan_io,
    pram_listrank_steps,
    pram_or_steps,
    pram_parity_steps,
    qsm_or_det_time,
    qsm_parity_det_time,
    sqsm_or_det_time,
    sqsm_parity_det_time,
)
from repro.models import MPC, MPCParams, PEM, PEMParams
from repro.obs import dominant_fractions
from repro.problems import gen_bits, gen_list, verify_list_ranks, verify_or, verify_parity

#: Input sizes; a dedicated env var (not ``REPRO_BENCH_NS``) so CI smoke
#: grids can't silently change the point keys ``bench check`` diffs.
NS = ns_from_env([64, 256], env="REPRO_CROSS_MODEL_NS")

MODELS = ["QSM", "s-QSM", "QSM(g,d)", "BSP", "PRAM", "MPC", "PEM"]
PROBLEMS = ["Parity", "OR", "ListRank"]

# Fixed model parameters (echoed in the printed rows).
G = 4.0            # QSM / s-QSM / QSM(g,d) gap
D = 2.0            # QSM(g,d) memory gap
BSP_G, BSP_L = 2.0, 8.0
MPC_S = 4.0        # MPC local memory (machines hold s words of input)
PEM_M, PEM_B = 64, 8

#: Cost unit per model row (the ``variant`` column of the table).
UNITS = {
    "QSM": "time", "s-QSM": "time", "QSM(g,d)": "time", "BSP": "time",
    "PRAM": "steps", "MPC": "rounds", "PEM": "io",
}


def _pcount(model: str, n: int) -> int:
    """Processor/machine count a row's algorithm and bound both use."""
    if model == "BSP":
        return max(2, min(16, n // 4))
    if model == "MPC":
        # p = n/s machines: the input starts block-distributed with s words
        # per machine, the premise of the log_s n fan-in bound.
        return max(2, n // int(MPC_S))
    if model == "PEM":
        return max(1, -(-n // PEM_B))  # one processor per input block
    return n


def _machine(model: str, n: int, engine: Optional[str] = None):
    if model == "QSM":
        return QSM(QSMParams(g=G), engine=engine)
    if model == "s-QSM":
        return SQSM(SQSMParams(g=G), engine=engine)
    if model == "QSM(g,d)":
        return QSMGD(QSMGDParams(g=G, d=D), engine=engine)
    if model == "BSP":
        return BSP(_pcount(model, n), BSPParams(g=BSP_G, L=BSP_L), engine=engine)
    if model == "PRAM":
        return PRAM(PRAMParams(variant="CRCW", write_rule="arbitrary"), engine=engine)
    if model == "MPC":
        return MPC(_pcount(model, n), MPCParams(s=MPC_S), engine=engine)
    if model == "PEM":
        return PEM(PEMParams(M=PEM_M, B=PEM_B), engine=engine)
    raise ValueError(f"unknown model {model!r}")


def _params_label(model: str, n: int) -> str:
    if model in ("QSM", "s-QSM"):
        return f"g={G:g}"
    if model == "QSM(g,d)":
        return f"g={G:g},d={D:g}"
    if model == "BSP":
        return f"g={BSP_G:g},L={BSP_L:g},p={_pcount(model, n)}"
    if model == "PRAM":
        return "CRCW"
    if model == "MPC":
        return f"s={MPC_S:g},p={_pcount(model, n)}"
    return f"M={PEM_M},B={PEM_B},p={_pcount(model, n)}"


def _bound(model: str, problem: str, n: int) -> float:
    """The encoded lower bound for one table cell, at the row's parameters."""
    if model in ("QSM", "QSM(g,d)"):
        # QSM(g,d) charges d*kappa >= kappa, so QSM bounds transfer.
        if problem == "OR":
            return qsm_or_det_time(n, G)
        return qsm_parity_det_time(n, G)  # Parity; ListRank via reduction
    if model == "s-QSM":
        if problem == "OR":
            return sqsm_or_det_time(n, G)
        return sqsm_parity_det_time(n, G)
    if model == "BSP":
        p = _pcount(model, n)
        if problem == "OR":
            return bsp_or_det_time(n, BSP_G, BSP_L, p)
        return bsp_parity_det_time(n, BSP_G, BSP_L, p)
    if model == "PRAM":
        return {"Parity": pram_parity_steps, "OR": pram_or_steps,
                "ListRank": pram_listrank_steps}[problem](n)
    if model == "MPC":
        return {"Parity": mpc_parity_rounds, "OR": mpc_or_rounds,
                "ListRank": mpc_listrank_rounds}[problem](n, MPC_S)
    if model == "PEM":
        p = _pcount(model, n)
        if problem == "ListRank":
            return pem_listrank_io(n, p, PEM_M, PEM_B)
        return pem_scan_io(n, p, PEM_M, PEM_B)
    raise ValueError(f"unknown model {model!r}")


def _tight(model: str, problem: str) -> bool:
    """Theta rows *at this bench's operating point*: the 1998 Theta entries
    reused here (s-QSM/BSP parity), the PRAM classics, and the MPC fan-in
    bound met exactly by the s-ary trees at p = n/s.  The PEM scan entries
    are Theta in the registry but not exercised tightly here: at
    p = ceil(n/B) the bound clamps to its floor of one I/O while the B-ary
    tree still pays its log_B n depth, so those rows report dominance."""
    return (model, problem) in {
        ("s-QSM", "Parity"), ("BSP", "Parity"),
        ("PRAM", "Parity"), ("PRAM", "OR"),
        ("MPC", "Parity"), ("MPC", "OR"),
    }


def _run_parity(machine, model: str, n: int):
    bits = gen_bits(n, seed=n)
    if model == "QSM":
        r = parity_blocks(machine, bits)
    elif model == "BSP":
        r = parity_bsp(machine, bits)
    elif model == "PRAM":
        r = parity_crcw(machine, bits)
    elif model == "MPC":
        r = parity_mpc(machine, bits)
    else:  # s-QSM, QSM(g,d), PEM: k-ary read-combining tree
        r = parity_tree(machine, bits)
    return r, verify_parity(bits, r.value)


def _run_or(machine, model: str, n: int):
    bits = gen_bits(n, density=0.05, seed=n)
    if model == "BSP":
        r = or_bsp(machine, bits)
    elif model == "PRAM":
        r = or_crcw(machine, bits)
    elif model == "MPC":
        r = or_mpc(machine, bits)
    else:  # QSM family + PEM: write tournament
        r = or_tree_writes(machine, bits)
    return r, verify_or(bits, r.value)


def _run_listrank(machine, model: str, n: int):
    next_ptrs, _ = gen_list(n, seed=n)
    if model == "BSP":
        r = list_rank_bsp(machine, next_ptrs)
    elif model == "MPC":
        r = list_rank_mpc(machine, next_ptrs)
    else:  # shared-memory pointer jumping (EREW pattern: PRAM-legal too)
        r = list_rank(machine, next_ptrs)
    return r, verify_list_ranks(next_ptrs, r.value)


_RUNNERS = {"Parity": _run_parity, "OR": _run_or, "ListRank": _run_listrank}


def run_cross_model_point(problem: str, model: str, n: int,
                          engine: Optional[str] = None) -> Dict[str, object]:
    """One (problem, model, n) cell as a sweep outcome (picklable)."""
    machine = _machine(model, n, engine=engine)
    r, correct = _RUNNERS[problem](machine, model, n)
    return {
        "measured": r.time,
        "bound": _bound(model, problem, n),
        "correct": correct,
        "dominant_terms": dominant_fractions(machine),
    }


def table_points(jobs: Optional[int] = None):
    """The full problem x model x n sweep, as parallel_sweep points."""
    grid = {"problem": PROBLEMS, "model": MODELS, "n": NS}
    return parallel_sweep(grid, run_cross_model_point, jobs=jobs,
                          **sweep_cache_kwargs())


def engine_parity(model: str, ns=None) -> bool:
    """True iff reference and vector engines agree bit-for-bit on every
    (problem, n) cell of one model — measured cost and correctness both."""
    if not have_numpy():
        return True  # vector resolves to reference; nothing to compare
    for problem in PROBLEMS:
        for n in ns if ns is not None else NS:
            ref = run_cross_model_point(problem, model, n, engine="reference")
            vec = run_cross_model_point(problem, model, n, engine="vector")
            if (ref["measured"], ref["correct"]) != (vec["measured"], vec["correct"]):
                return False
    return True


# --- the committed baseline payload (BENCH_cross_model.json) -----------------

def collect(jobs: Optional[int] = None) -> Dict[str, object]:
    """Measure the cross-model table for ``bench check``.

    Schema ``cross_model/1``: outcomes nest under ``cells.<problem>.<key>``
    (``cells``, not ``points`` — the latter is regress config-skip), each
    carrying the deterministic ``measured`` / ``bound`` / ``correct``
    trio gated at the tight 1% tolerance, plus the MPC/PEM engine
    bit-equality booleans.
    """
    jobs = default_jobs() if jobs is None else jobs
    points = table_points(jobs=jobs)
    cells: Dict[str, Dict[str, Dict[str, object]]] = {}
    for p in points:
        key = "model={model},n={n}".format(**p.params)
        cells.setdefault(p.params["problem"], {})[key] = {
            "measured": p.measured,
            "bound": p.bound,
            "correct": p.correct,
        }
    return {
        "schema": "cross_model/1",
        "models": MODELS,
        "cells": cells,
        "engines_agree_mpc": engine_parity("MPC"),
        "engines_agree_pem": engine_parity("PEM"),
    }


def main(jobs: Optional[int] = None) -> None:
    points = table_points(jobs=jobs)
    for problem in PROBLEMS:
        rows = [
            CellRow(
                p.params["model"],
                UNITS[p.params["model"]],
                p.params["n"],
                _params_label(p.params["model"], p.params["n"]),
                p.measured,
                p.bound,
                p.correct,
                dominant=format_dominant(p.dominant_terms),
            )
            for p in points
            if p.params["problem"] == problem
        ]
        rows.sort(key=lambda r: (MODELS.index(r.problem), r.n))
        verdicts = {}
        for model in MODELS:
            cell = [r for r in rows if r.problem == model]
            verdicts[(model, UNITS[model])] = summarise_cell(
                cell, tight=_tight(model, problem), band=12.0
            )
        print_rows(
            f"Cross-model Table 1: {problem} (measured cost vs encoded bound)",
            rows,
            verdicts,
        )
        print()
    print(
        "engine bit-equality: MPC "
        f"{'ok' if engine_parity('MPC', ns=[NS[0]]) else 'DIVERGED'}, PEM "
        f"{'ok' if engine_parity('PEM', ns=[NS[0]]) else 'DIVERGED'} "
        f"(vector backend: {have_numpy()})"
    )


# --- pytest-benchmark targets ------------------------------------------------

def bench_cross_model_dominance(benchmark):
    """Every cell answers correctly and the measured cost dominates the
    encoded bound (constant 1/2 absorbs the hidden-constant-1 convention)."""
    points = benchmark.pedantic(lambda: table_points(jobs=1), rounds=1, iterations=1)
    assert len(points) == len(PROBLEMS) * len(MODELS) * len(NS)
    assert all(p.correct for p in points), [
        p.params for p in points if not p.correct
    ]
    bad = [p.params for p in points if p.measured < 0.5 * p.bound]
    assert not bad, f"measured fell below the lower bound at: {bad}"


def bench_cross_model_mpc_tightness(benchmark):
    """The MPC aggregation rows meet the log_s n fan-in bound exactly at
    the p = n/s operating point (measured effective rounds == bound)."""
    def run():
        return [run_cross_model_point(prob, "MPC", n)
                for prob in ("Parity", "OR") for n in NS]

    outs = benchmark.pedantic(run, rounds=1, iterations=1)
    for out in outs:
        assert out["correct"]
        assert out["measured"] == pytest.approx(out["bound"])


def bench_cross_model_engine_bit_equality(benchmark):
    """MPC and PEM produce bit-identical costs on both engines."""
    pytest.importorskip("numpy")
    ok = benchmark.pedantic(
        lambda: engine_parity("MPC", ns=[NS[0]]) and engine_parity("PEM", ns=[NS[0]]),
        rounds=1, iterations=1,
    )
    assert ok


if __name__ == "__main__":
    main()
