"""The classical PRAM family: EREW, CREW, CRCW.

The paper's lower-bound techniques descend from PRAM results — Beame &
Hastad's CRCW bounds [3], MacKenzie's EREW/QRQW adversaries [15, 16, 17],
the few-write PRAM degree argument [6] — and Theorems 3.3/3.4 transfer
CRCW bounds to the QSM.  This module supplies the reference machines so the
model ladder EREW -> CREW -> QRQW (= QSM with g = 1) -> CRCW is executable
end to end.

A PRAM step is one synchronous phase in which every processor performs O(1)
local work and at most one shared-memory read *or* write; a step costs unit
time.  The variants differ only in which access patterns are legal and how
write conflicts resolve:

=========  ==================  =======================================
variant    concurrent reads    concurrent writes
=========  ==================  =======================================
EREW       forbidden           forbidden
CREW       free                forbidden
CRCW       free                resolved by the write rule:
                               ``common`` (equal values required),
                               ``arbitrary`` (seeded winner),
                               ``priority`` (lowest processor id wins)
=========  ==================  =======================================

Illegal concurrency raises :class:`ConcurrencyViolation` — on a PRAM it is
a programming error, not a cost (that re-charging is exactly what the
queuing models of the paper add).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.machine import Collided, Phase, SharedMemoryMachine
from repro.core.phase import PhaseRecord, queue_max

__all__ = ["PRAMParams", "PRAM", "ConcurrencyViolation"]

_VARIANTS = ("EREW", "CREW", "CRCW")
_WRITE_RULES = ("common", "arbitrary", "priority")


class ConcurrencyViolation(RuntimeError):
    """An access pattern the PRAM variant forbids."""


@dataclass(frozen=True)
class PRAMParams:
    """PRAM variant and, for the CRCW, the write-conflict rule."""

    variant: str = "EREW"
    write_rule: str = "arbitrary"

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.write_rule not in _WRITE_RULES:
            raise ValueError(
                f"write_rule must be one of {_WRITE_RULES}, got {self.write_rule!r}"
            )


class PRAM(SharedMemoryMachine):
    """Synchronous PRAM; each committed phase is one unit-time step."""

    model_label = "PRAM"

    def __init__(
        self,
        params: Optional[PRAMParams] = None,
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
        self.params = params if params is not None else PRAMParams()

    @property
    def _arbitrary_write_rule(self) -> bool:
        return self.params.write_rule == "arbitrary"

    def _phase_cost(self, record: PhaseRecord) -> float:
        self._enforce_step_shape(record)
        self._enforce_concurrency(record)
        return 1.0

    def _cost_terms(self, record: PhaseRecord):
        # Every legal PRAM step costs unit time; there is no max() to win.
        return {"step": 1.0}

    def _enforce_step_shape(self, record: PhaseRecord) -> None:
        for proc in set(record.reads_per_proc) | set(record.writes_per_proc):
            r = record.reads_per_proc.get(proc, 0)
            w = record.writes_per_proc.get(proc, 0)
            if r + w > 1:
                raise ConcurrencyViolation(
                    f"processor {proc} issued {r} reads and {w} writes in one "
                    f"PRAM step; at most one shared-memory access is allowed"
                )

    def _enforce_concurrency(self, record: PhaseRecord) -> None:
        # The lowest-addressed violating cell is reported, so the message
        # does not depend on the order the phase issued its accesses in.
        variant = self.params.variant
        if variant in ("EREW",) and queue_max(record.read_queue) > 1:
            addr = min(a for a, q in record.read_queue.items() if q > 1)
            raise ConcurrencyViolation(
                f"{record.read_queue[addr]} concurrent readers of cell {addr} "
                f"on an EREW PRAM"
            )
        if variant in ("EREW", "CREW") and queue_max(record.write_queue) > 1:
            addr = min(a for a, q in record.write_queue.items() if q > 1)
            raise ConcurrencyViolation(
                f"{record.write_queue[addr]} concurrent writers of cell {addr} "
                f"on a {variant} PRAM"
            )

    def _resolve_writes(self, phase: Phase) -> None:
        rule = self.params.write_rule
        if rule == "arbitrary":
            # The QSM's rule, with the same pluggable arbitration.
            self._apply_arbitrary_writes(phase)
            return
        # The common and priority rules read every writer of a cell.
        writes = phase._write_entries()
        if not phase._write_collision:
            self._apply_single_writes(phase)
            return
        for addr, entry in writes.items():
            kind = type(entry)
            if kind is not Collided:
                self._memory[addr] = entry[1] if kind is tuple else entry
                continue
            entries = entry
            # Only reachable on the CRCW (others raised during costing).
            if rule == "common":
                values = {repr(v) for _, v in entries}
                if len(values) != 1:
                    raise ConcurrencyViolation(
                        f"COMMON CRCW writers disagree at cell {addr}: {values}"
                    )
                self._memory[addr] = entries[0][1]
            else:  # priority
                winner = min(entries, key=lambda e: e[0])
                self._memory[addr] = winner[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PRAM({self.params.variant}/{self.params.write_rule}, "
            f"steps={self.phase_count}, time={self.time})"
        )
