"""The QSM(g,d) model — the generalization behind Claim 2.2.

The QSM(g,d) (Gibbons-Matias-Ramachandran [10], Ramachandran [21]) carries
*two* gap parameters: ``g`` per shared-memory request issued at a processor
and ``d`` per request served at a memory cell.  Phase cost:

    ``max(m_op, g * m_rw, d * kappa)``.

Both of the paper's shared-memory models are instances:

* ``d = 1``  →  the QSM,
* ``d = g``  →  the s-QSM,

and Claim 2.2 translates GSM lower bounds to the QSM(g,d) with the
substitutions implemented in :mod:`repro.core.mapping`
(:func:`~repro.core.mapping.qsm_gd_time_from_gsm`).  This simulator lets
the `ABL-queue` ablation interpolate continuously between the queue and
symmetric-queue charging rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.phase import PhaseRecord
from repro.core.qsm import QSM

__all__ = ["QSMGDParams", "QSMGD"]


@dataclass(frozen=True)
class QSMGDParams:
    """Processor gap ``g`` and memory gap ``d``; both at least 1."""

    g: float = 1.0
    d: float = 1.0

    def __post_init__(self) -> None:
        from repro.core.params import _check_gap

        _check_gap("QSM(g,d) g", self.g)
        _check_gap("QSM(g,d) d", self.d)


def qsm_gd_phase_cost(record: PhaseRecord, params: QSMGDParams) -> float:
    """Phase cost ``max(m_op, g * m_rw, d * kappa)``."""
    return float(
        max(
            float(record.m_op),
            params.g * record.m_rw,
            params.d * record.kappa,
        )
    )


def qsm_gd_cost_terms(record: PhaseRecord, params: QSMGDParams):
    """The three QSM(g,d) charge terms: ``m_op``, ``g*m_rw``, ``d*kappa``.

    Every value is a ``float``: gap parameters may be ints, and a term like
    ``g * m_rw`` must not change type (int vs float) with the parameter
    spelling — dominant-term tie-breaking and JSONL round-trips are
    type-stable only when the terms are.
    """
    return {
        "m_op": float(record.m_op),
        "g*m_rw": float(params.g * record.m_rw),
        "d*kappa": float(params.d * record.kappa),
    }


class QSMGD(QSM):
    """QSM(g,d) machine: QSM memory semantics, two-gap cost rule."""

    model_label = "QSM(g,d)"

    def __init__(
        self,
        params: Optional[QSMGDParams] = None,
        num_processors: Optional[int] = None,
        memory_size: Optional[int] = None,
        seed: Optional[int] = 0,
        record_trace: bool = False,
        record_snapshots: bool = False,
        record_costs: bool = False,
        winner_policy=None,
        fault_plan=None,
    ) -> None:
        super().__init__(
            params=None,
            num_processors=num_processors,
            memory_size=memory_size,
            seed=seed,
            record_trace=record_trace,
            record_snapshots=record_snapshots,
            record_costs=record_costs,
            winner_policy=winner_policy,
            fault_plan=fault_plan,
        )
        self.params = params if params is not None else QSMGDParams()  # type: ignore[assignment]

    def _phase_cost(self, record: PhaseRecord) -> float:
        return qsm_gd_phase_cost(record, self.params)

    def _cost_terms(self, record: PhaseRecord):
        return qsm_gd_cost_terms(record, self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QSMGD(g={self.params.g}, d={self.params.d}, "
            f"phases={self.phase_count}, time={self.time})"
        )
