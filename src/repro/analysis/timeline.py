"""Phase-history inspection: render what a machine was charged, and why.

``explain(machine)`` produces a per-phase table showing the quantities the
Section 2 cost formulas consumed — ``m_op``, ``m_rw``, ``kappa`` (split
into read and write queues), the big-step count on the GSM, and which term
of the max() dominated the charge.  This is the first thing to look at when
an algorithm costs more than expected on some model.

Since the cost-provenance layer landed, the "which term won" logic lives in
the machines' ``_cost_terms`` hooks (the ``*_cost_terms`` functions of
:mod:`repro.core.cost`) shared with :mod:`repro.obs`;
:func:`dominant_term` keeps its historical human-readable labels on top of
them, and :func:`explain_summary` renders the per-run dominant-term
aggregation (:func:`repro.obs.summarize`) as one line per term.
"""

from __future__ import annotations

from typing import List, Union

from repro.analysis.tables import render_table
from repro.core.bsp import BSP
from repro.core.gsm import GSM
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM

__all__ = ["explain", "explain_summary", "dominant_term", "TERM_LABELS"]

Machine = Union[QSM, SQSM, GSM, BSP]

#: Cost-term keys (as emitted by the ``*_cost_terms`` functions) to the
#: human-readable labels ``explain`` tables have always printed.
TERM_LABELS = {
    "m_op": "m_op (local)",
    "g*m_rw": "g*m_rw (requests)",
    "kappa": "kappa (contention)",
    "g*kappa": "kappa (contention)",
    "d*kappa": "kappa (contention)",
    "mu*ceil(m_rw/alpha)": "m_rw/alpha",
    "mu*ceil(kappa/beta)": "kappa/beta",
    "w": "w (local work)",
    "g*h": "g*h (communication)",
    "L": "L (latency floor)",
    "step": "step (unit time)",
}


def term_label(term: str) -> str:
    """Human-readable label for a cost-term key (identity for unknown keys)."""
    return TERM_LABELS.get(term, term)


def dominant_term(machine: Machine, index: int) -> str:
    """Which term of the phase-cost max() set the charge for phase ``index``."""
    from repro.obs.records import dominant_of

    return term_label(dominant_of(machine._cost_terms(machine.history[index])))


def explain(machine: Machine, limit: int = 50) -> str:
    """Render the machine's phase history as an aligned table (first
    ``limit`` phases)."""
    rows: List[list] = []
    if isinstance(machine, BSP):
        for rec, cost in list(zip(machine.history, machine.step_costs))[:limit]:
            rows.append([rec.index, rec.w, rec.h, rec.total_messages, cost,
                         dominant_term(machine, rec.index)])
        return render_table(
            ["step", "w", "h", "msgs", "cost", "dominated by"],
            rows,
            title=f"BSP superstep history (showing {min(limit, len(rows))} of {machine.superstep_count})",
        )
    for rec, cost in list(zip(machine.history, machine.phase_costs))[:limit]:
        read_q = max(rec.read_queue.values(), default=0)
        write_q = max(rec.write_queue.values(), default=0)
        rows.append([rec.index, rec.m_op, rec.m_rw, read_q, write_q, cost,
                     dominant_term(machine, rec.index)])
    title = f"{type(machine).__name__} phase history (showing {min(limit, len(rows))} of {machine.phase_count})"
    return render_table(
        ["phase", "m_op", "m_rw", "read q", "write q", "cost", "dominated by"],
        rows,
        title=title,
    )


def explain_summary(machine: Machine) -> str:
    """Render the run's dominant-term aggregation: one row per term.

    Each row shows how many phases the term won, the summed cost of those
    phases, and the cost-weighted fraction — the same numbers the Table 1
    drivers attach to their sweep outcomes.
    """
    from repro.obs.records import machine_cost_records, summarize

    summary = summarize(machine_cost_records(machine))
    rows: List[list] = []
    for term, phase_count in sorted(
        summary.dominant_phases.items(),
        key=lambda item: -summary.dominant_cost[item[0]],
    ):
        cost = summary.dominant_cost[term]
        fraction = summary.fractions.get(term, 0.0)
        rows.append([term_label(term), phase_count, round(cost, 2), f"{fraction:.1%}"])
    return render_table(
        ["dominant term", "phases won", "cost", "share"],
        rows,
        title=(
            f"{machine.model_label} dominant-term summary "
            f"({summary.phases} phases, total cost {summary.total_cost:g})"
        ),
    )
