"""The QSM simulator (Section 2.1).

Memory semantics: queue-read queue-write.  Concurrent reads of a cell all
receive the cell's pre-phase value; among concurrent writers to a cell, an
*arbitrary* one succeeds.  "Arbitrary" is adversarial from the algorithm's
point of view, so the simulator picks the winner with its seeded generator —
a correct algorithm must produce the right answer for every seed, and the
test suite exercises several.

Cost: ``max(m_op, g * m_rw, kappa)`` per phase.  With ``g == 1`` this is the
QRQW PRAM.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.cost import qsm_cost_terms, qsm_phase_cost
from repro.core.machine import Phase, SharedMemoryMachine
from repro.core.params import QSMParams
from repro.core.phase import PhaseRecord

__all__ = ["QSM"]


class QSM(SharedMemoryMachine):
    """Queuing Shared Memory machine."""

    model_label = "QSM"
    _arbitrary_write_rule = True

    def __init__(
        self,
        params: Optional[QSMParams] = None,
        num_processors: Optional[int] = None,
        memory_size: Optional[int] = None,
        seed: Optional[int] = 0,
        record_trace: bool = False,
        record_snapshots: bool = False,
        record_costs: bool = False,
        winner_policy: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        super().__init__(
            num_processors=num_processors,
            memory_size=memory_size,
            seed=seed,
            record_trace=record_trace,
            record_snapshots=record_snapshots,
            record_costs=record_costs,
            winner_policy=winner_policy,
            fault_plan=fault_plan,
        )
        self.params = params if params is not None else QSMParams()

    def _phase_cost(self, record: PhaseRecord) -> float:
        return qsm_phase_cost(record, self.params)

    def _cost_terms(self, record: PhaseRecord):
        return qsm_cost_terms(record, self.params)

    def _resolve_writes(self, phase: Phase) -> None:
        # Arbitrary-winner concurrent write: the value present at the end
        # of the phase is one of the written values, chosen by the machine
        # (or its installed winner policy), not the algorithm.
        self._apply_arbitrary_writes(phase)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QSM(g={self.params.g}, p={self.num_processors}, "
            f"phases={self.phase_count}, time={self.time})"
        )
