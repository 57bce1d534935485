"""The Section 2 cost formulas, as pure functions of phase records.

Keeping the formulas separate from the machines lets the ablation bench
(`ABL-queue` in DESIGN.md) charge the *same* program under different cost
rules, and lets tests pin each formula against hand-computed values.

Each ``*_phase_cost`` formula has a ``*_cost_terms`` companion returning
the evaluated terms of its ``max()`` as an ordered mapping (term name ->
charged value).  The cost always equals ``max(terms.values())``, and the
first argmax in mapping order is the phase's *dominant term* — the
provenance the observability layer (:mod:`repro.obs`) records per phase.
Term order is canonical per model: local work first, then the bandwidth
term, then contention/latency, so ties resolve to the cheaper explanation.

Every term value (and every cost) is a ``float``, whatever the parameter
spelling: gap parameters accept ints, and ``g * m_rw`` would otherwise
stay ``int`` for ``g=2`` but turn ``float`` for ``g=2.0`` — making
dominant-term dumps and JSONL round-trips compare unequal across runs
that are numerically identical.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, Mapping

from repro.core.params import (
    BSPParams,
    GSMParams,
    MPCParams,
    PEMParams,
    QSMParams,
    SQSMParams,
)
from repro.core.phase import PhaseRecord, SuperstepRecord, queue_max

__all__ = [
    "queue_max",
    "qsm_phase_cost",
    "qsm_cost_terms",
    "sqsm_phase_cost",
    "sqsm_cost_terms",
    "gsm_big_steps",
    "gsm_phase_cost",
    "gsm_cost_terms",
    "bsp_superstep_cost",
    "bsp_cost_terms",
    "mpc_round_cost",
    "mpc_cost_terms",
    "pem_phase_cost",
    "pem_cost_terms",
]


def qsm_phase_cost(record: PhaseRecord, params: QSMParams) -> float:
    """QSM phase cost ``max(m_op, g * m_rw, kappa)`` (Section 2.1).

    With ``params.unit_time_concurrent_reads`` only write queues contribute
    to the contention term (concurrent reads are unit-time), the variant
    against which Theorem 3.1's lower bound and the matching upper bound are
    stated.
    """
    if params.unit_time_concurrent_reads:
        kappa = float(max(1, queue_max(record.write_queue)))
    else:
        kappa = float(record.kappa)
    return float(max(float(record.m_op), params.g * record.m_rw, kappa))


def qsm_cost_terms(record: PhaseRecord, params: QSMParams) -> Dict[str, float]:
    """The three QSM charge terms: ``m_op``, ``g*m_rw``, ``kappa``.

    With ``params.unit_time_concurrent_reads`` the ``kappa`` entry is the
    write-queue contention only, matching :func:`qsm_phase_cost`.
    """
    if params.unit_time_concurrent_reads:
        kappa = float(max(1, queue_max(record.write_queue)))
    else:
        kappa = float(record.kappa)
    return {
        "m_op": float(record.m_op),
        "g*m_rw": float(params.g * record.m_rw),
        "kappa": kappa,
    }


def sqsm_phase_cost(record: PhaseRecord, params: SQSMParams) -> float:
    """s-QSM phase cost ``max(m_op, g * m_rw, g * kappa)`` (Section 2.1)."""
    return float(
        max(float(record.m_op), params.g * record.m_rw, params.g * record.kappa)
    )


def sqsm_cost_terms(record: PhaseRecord, params: SQSMParams) -> Dict[str, float]:
    """The three s-QSM charge terms: ``m_op``, ``g*m_rw``, ``g*kappa``."""
    return {
        "m_op": float(record.m_op),
        "g*m_rw": float(params.g * record.m_rw),
        "g*kappa": float(params.g * record.kappa),
    }


def gsm_big_steps(record: PhaseRecord, params: GSMParams) -> int:
    """Number of big-steps ``b = max(ceil(m_rw/alpha), ceil(kappa/beta))``.

    A phase always takes at least one big-step (``m_rw >= 1`` and
    ``kappa >= 1`` by definition of the records).
    """
    b_rw = ceil(record.m_rw / params.alpha)
    b_cont = ceil(record.kappa / params.beta)
    return max(1, b_rw, b_cont)


def gsm_phase_cost(record: PhaseRecord, params: GSMParams) -> float:
    """GSM phase cost ``mu * b`` (Section 2.2).

    Local computation is free on the GSM (it is a lower-bound model), so
    ``m_op`` does not appear.
    """
    return float(params.mu * gsm_big_steps(record, params))


def gsm_cost_terms(record: PhaseRecord, params: GSMParams) -> Dict[str, float]:
    """The two GSM big-step charges, each already scaled by ``mu``.

    ``mu * ceil(m_rw/alpha)`` is the charge if bandwidth alone set the
    big-step count; ``mu * ceil(kappa/beta)`` if contention did.  The max
    of the two equals :func:`gsm_phase_cost` (``ceil(m_rw/alpha) >= 1``
    always, since ``m_rw >= 1`` by definition of the records).
    """
    mu = params.mu
    return {
        "mu*ceil(m_rw/alpha)": float(mu * ceil(record.m_rw / params.alpha)),
        "mu*ceil(kappa/beta)": float(mu * ceil(record.kappa / params.beta)),
    }


def bsp_superstep_cost(record: SuperstepRecord, params: BSPParams) -> float:
    """BSP superstep cost ``max(w, g * h, L)`` (Section 2.1)."""
    return float(max(float(record.w), params.g * record.h, params.L))


def bsp_cost_terms(record: SuperstepRecord, params: BSPParams) -> Dict[str, float]:
    """The three BSP charge terms: ``L``, ``g*h``, ``w``.

    ``L`` leads the mapping so that a superstep charged exactly the
    latency floor attributes to ``L`` even when ``g*h`` ties it (the
    ``bsp_fanin`` design point routes exactly ``L/g`` messages, making
    ``g*h == L`` ties routine): at the floor, sending fewer messages
    would not have made the superstep cheaper.
    """
    return {
        "L": float(params.L),
        "g*h": float(params.g * record.h),
        "w": float(record.w),
    }


def mpc_round_cost(record: SuperstepRecord, params: MPCParams) -> float:
    """MPC effective-round charge ``max(1, h / s)``.

    A round whose h-relation fits each machine's local memory ``s`` costs
    exactly one round; a round exchanging more than ``s`` words per
    machine cannot happen in the model and is charged the ``h/s`` rounds
    it would tile over.  Summing this charge over supersteps makes
    ``machine.time`` the capacity-respecting round count the MPC lower
    bounds (``repro.lowerbounds.formulas``, table ``"mpc"``) are stated
    against.  Local computation is free (MPC, like the GSM, is a
    communication-bounded model).
    """
    return float(max(1.0, record.h / params.s))


def mpc_cost_terms(record: SuperstepRecord, params: MPCParams) -> Dict[str, float]:
    """The two MPC charge terms: ``round`` (the floor of 1) and ``h/s``.

    ``round`` leads the mapping so a superstep within memory capacity
    attributes to the round floor even when ``h/s`` ties it at exactly 1 —
    at the floor, sending fewer words would not have made the round
    cheaper.
    """
    return {
        "round": 1.0,
        "h/s": float(record.h / params.s),
    }


def pem_phase_cost(record: PhaseRecord, params: PEMParams) -> float:
    """PEM phase cost ``max(ceil(m_rw / B), kappa)`` (parallel I/Os).

    A processor touching ``m_rw`` shared cells moves them through its
    cache in blocks of ``B`` — ``ceil(m_rw / B)`` block I/Os; concurrent
    access to one cell serializes at the block level, charging the queue
    depth ``kappa``.  Local computation inside the cache is free: PEM
    measures I/O complexity only, like the GSM measures big-steps.
    """
    return float(max(ceil(record.m_rw / params.B), record.kappa))


def pem_cost_terms(record: PhaseRecord, params: PEMParams) -> Dict[str, float]:
    """The two PEM charge terms: ``ceil(m_rw/B)`` and ``kappa``.

    The bandwidth (I/O-volume) term leads so ties at depth-1 contention
    attribute to the block transfers, mirroring the GSM term order.
    """
    return {
        "ceil(m_rw/B)": float(ceil(record.m_rw / params.B)),
        "kappa": float(record.kappa),
    }
