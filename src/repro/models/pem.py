"""The PEM simulator (Parallel External Memory).

The model of Arge, Goodrich, Nelson & Sitchinava: ``p`` processors, each
with a private cache of ``M`` words, sharing an external memory accessed
in blocks of ``B`` words.  The measure is *parallel I/O complexity* —
the number of parallel block transfers, with computation inside the
caches free.

The simulator rides the shared-memory phase substrate unchanged, so the
block and columnar ops, winner policies and memory fault plans all apply
as-is.
Semantics follow the CREW flavour with queued writes: concurrent reads
of a cell all see the pre-phase value; among concurrent writers an
*arbitrary* one succeeds, arbitrated through the same ``_pick_winners``
choke point as the QSM family (so the adversarial winner search and the
chaos harness reach PEM for free).

Cost per phase (:func:`repro.core.cost.pem_phase_cost`):
``max(ceil(m_rw / B), kappa)`` — a processor touching ``m_rw`` cells
pays ``ceil(m_rw / B)`` block I/Os, and queue contention ``kappa``
serializes at the block level.  Both aggregates come straight from the
:class:`~repro.core.phase.PhaseRecord`; the phase oracle
(``tests/property/test_phase_oracle.py``) recomputes them from raw
events.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.cost import pem_cost_terms, pem_phase_cost
from repro.core.machine import Phase, SharedMemoryMachine
from repro.core.params import PEMParams
from repro.core.phase import PhaseRecord

__all__ = ["PEM"]


class PEM(SharedMemoryMachine):
    """Parallel External Memory machine (private caches, block transfers)."""

    model_label = "PEM"
    _arbitrary_write_rule = True

    def __init__(
        self,
        params: Optional[PEMParams] = None,
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
        self.params = params if params is not None else PEMParams()

    def _phase_cost(self, record: PhaseRecord) -> float:
        return pem_phase_cost(record, self.params)

    def _cost_terms(self, record: PhaseRecord) -> Dict[str, float]:
        return pem_cost_terms(record, self.params)

    def _resolve_writes(self, phase: Phase) -> None:
        # Same arbitrary-winner write rule as the QSM: collided cells take
        # their winners from the seeded/policy-driven _pick_winners.
        self._apply_arbitrary_writes(phase)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PEM(M={self.params.M}, B={self.params.B}, "
            f"phases={self.phase_count}, io={self.time})"
        )
