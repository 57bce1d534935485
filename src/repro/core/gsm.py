"""The GSM simulator — the paper's lower-bound model (Section 2.2).

Differences from the QSM:

* **Strong queuing writes.**  When several processors write a cell, *all*
  written values are transferred and added to the information already in the
  cell.  We represent a GSM cell as a tuple of values; writes extend it, and
  reads deliver the whole tuple.  (Cells "can hold an arbitrarily large
  amount of information".)
* **Gamma-packed inputs.**  At time zero each cell may hold information
  about up to ``gamma`` inputs; :meth:`GSM.load_packed` packs an input
  sequence accordingly.
* **Big-step costing.**  A phase with ``m_rw`` reads/writes per processor
  and contention ``kappa`` takes ``b = max(ceil(m_rw/alpha), ceil(kappa/beta))``
  big-steps of duration ``mu = max(alpha, beta)``.  Local computation is free
  (this is a lower-bound model: making it stronger only strengthens bounds
  proved on it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import gsm_big_steps, gsm_cost_terms, gsm_phase_cost
from repro.core.machine import Collided, Phase, SharedMemoryMachine
from repro.core.params import GSMParams
from repro.core.phase import PhaseRecord

__all__ = ["GSM"]


class GSM(SharedMemoryMachine):
    """Generalized Shared Memory machine (strong queuing model)."""

    model_label = "GSM"

    def __init__(
        self,
        params: Optional[GSMParams] = None,
        num_processors: Optional[int] = None,
        memory_size: Optional[int] = None,
        seed: Optional[int] = 0,
        record_trace: bool = False,
        record_snapshots: bool = False,
        record_costs: bool = False,
        fault_plan: Optional[Any] = None,
    ) -> None:
        # No winner_policy: GSM strong queuing accumulates every written
        # value, so there is no arbitration to subvert.
        super().__init__(
            num_processors=num_processors,
            memory_size=memory_size,
            seed=seed,
            record_trace=record_trace,
            record_snapshots=record_snapshots,
            record_costs=record_costs,
            fault_plan=fault_plan,
        )
        self.params = params if params is not None else GSMParams()
        self.big_steps: int = 0

    def _phase_cost(self, record: PhaseRecord) -> float:
        self.big_steps += gsm_big_steps(record, self.params)
        return gsm_phase_cost(record, self.params)

    def _cost_terms(self, record: PhaseRecord):
        return gsm_cost_terms(record, self.params)

    def _resolve_writes(self, phase: Phase) -> None:
        # Strong queuing merges into whatever the cell already holds, so the
        # GSM always walks entries individually (no last-value bulk path).
        memory = self._memory
        memory_get = memory.get
        for addr, entry in phase._write_entries().items():
            existing = memory_get(addr, ())
            if not isinstance(existing, tuple):
                existing = (existing,)
            kind = type(entry)
            if kind is Collided:
                entries = entry
                # Deterministic accumulation order: by processor id then
                # issue order, so traces are reproducible.
                indexed = sorted(
                    range(len(entries)), key=lambda i: (entries[i][0], i)
                )
                memory[addr] = existing + tuple(entries[i][1] for i in indexed)
            elif kind is tuple:
                memory[addr] = existing + (entry[1],)
            else:
                memory[addr] = existing + (entry,)

    def poke(self, addr: int, value: Any) -> None:
        """Set a cell's entire contents.  Non-tuple values are wrapped.

        GSM cells always hold tuples so that reads after strong-queuing
        writes have a uniform shape.
        """
        if not isinstance(value, tuple):
            value = (value,)
        super().poke(addr, value)

    def load_packed(self, values: Sequence[Any], base: int = 0) -> int:
        """Pack inputs ``gamma`` per cell starting at ``base``.

        Returns the number of cells used.  This is the paper's initial
        condition: "each cell contains information about up to ``gamma``
        inputs (disjoint from other cells)".
        """
        gamma = self.params.gamma
        cells = 0
        for start in range(0, len(values), gamma):
            self.poke(base + cells, tuple(values[start : start + gamma]))
            cells += 1
        return cells

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.params
        return (
            f"GSM(alpha={p.alpha}, beta={p.beta}, gamma={p.gamma}, "
            f"phases={self.phase_count}, big_steps={self.big_steps}, time={self.time})"
        )
