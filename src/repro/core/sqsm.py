"""The s-QSM simulator (Section 2.1).

Identical memory semantics to the QSM; the only difference is the cost rule,
which charges the gap ``g`` for each unit of contention at memory as well as
for each access at a processor: ``max(m_op, g * m_rw, g * kappa)``.

The QRQW PRAM is the s-QSM with ``g == 1``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cost import sqsm_cost_terms, sqsm_phase_cost
from repro.core.params import SQSMParams
from repro.core.phase import PhaseRecord
from repro.core.qsm import QSM

__all__ = ["SQSM"]


class SQSM(QSM):
    """Symmetric Queuing Shared Memory machine.

    Subclasses :class:`~repro.core.qsm.QSM` because write resolution is
    identical; only the phase cost differs.
    """

    model_label = "s-QSM"

    def __init__(
        self,
        params: Optional[SQSMParams] = None,
        num_processors: Optional[int] = None,
        memory_size: Optional[int] = None,
        seed: Optional[int] = 0,
        record_trace: bool = False,
        record_snapshots: bool = False,
        record_costs: bool = False,
        winner_policy=None,
        fault_plan=None,
    ) -> None:
        sqsm_params = params if params is not None else SQSMParams()
        # Initialise the QSM layer with a structurally compatible parameter
        # object, then override cost via self.params below.
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
        self.params = sqsm_params  # type: ignore[assignment]

    def _phase_cost(self, record: PhaseRecord) -> float:
        return sqsm_phase_cost(record, self.params)

    def _cost_terms(self, record: PhaseRecord):
        return sqsm_cost_terms(record, self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SQSM(g={self.params.g}, p={self.num_processors}, "
            f"phases={self.phase_count}, time={self.time})"
        )
