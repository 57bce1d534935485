"""Shared plumbing for the algorithm implementations.

* :class:`RunResult` — what every algorithm returns: the answer plus the
  simulated cost delta it incurred on its machine.
* :class:`Allocator` — a bump allocator over the machine's address space so
  algorithms can lay out inputs and scratch arrays without clashing.
* :func:`check_bits` — the 0/1 input validation of the parity and OR
  algorithms.
* Fan-in selection helpers — the Section 8 algorithms pick tree fan-ins as a
  function of the machine's parameters (``g`` on the QSM, 2 on the s-QSM,
  ``L/g`` on the BSP); centralising the choice makes the fan-in ablation
  (`ABL-fanin`) a one-liner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

from repro.core.bsp import BSP
from repro.core.gsm import GSM
from repro.core.machine import SharedMemoryMachine
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM

__all__ = [
    "RunResult",
    "Allocator",
    "default_tree_fanin",
    "bsp_fanin",
    "mpc_fanin",
    "model_name",
    "CostMeter",
    "check_bits",
]

Machine = Union[QSM, SQSM, GSM, BSP]


@dataclass(frozen=True)
class RunResult:
    """Answer plus the cost the algorithm added to its machine.

    Attributes
    ----------
    value:
        The algorithm's output (problem-specific shape).
    time:
        Simulated model time consumed by this run (delta, not machine total).
    phases:
        Number of phases (shared-memory) or supersteps (BSP) executed.
    extra:
        Free-form per-algorithm diagnostics (iteration counts, contention
        peaks, retries...).
    """

    value: Any
    time: float
    phases: int
    extra: dict = field(default_factory=dict)


class CostMeter:
    """Snapshot a machine's cost counters; measure the delta of one run."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._time0 = machine.time
        self._phases0 = self._phase_count()

    def _phase_count(self) -> int:
        if isinstance(self.machine, BSP):
            return self.machine.superstep_count
        return self.machine.phase_count

    def result(self, value: Any, **extra: Any) -> RunResult:
        return RunResult(
            value=value,
            time=self.machine.time - self._time0,
            phases=self._phase_count() - self._phases0,
            extra=dict(extra),
        )


class Allocator:
    """Bump allocator over a shared-memory machine's address space."""

    def __init__(self, base: int = 0) -> None:
        if base < 0:
            raise ValueError(f"base address must be non-negative, got {base}")
        self._next = base

    def alloc(self, size: int) -> int:
        """Reserve ``size`` consecutive cells; returns the base address."""
        if size < 0:
            raise ValueError(f"allocation size must be non-negative, got {size}")
        base = self._next
        self._next += size
        return base

    @property
    def watermark(self) -> int:
        """One past the highest address handed out."""
        return self._next


_BITS = frozenset((0, 1))


def check_bits(bits: Sequence[int], problem: str) -> List[int]:
    """``bits`` as a new list of int bits.

    Raises ``ValueError`` naming ``problem`` at the first element that is
    not 0 or 1 (by ``==``, so ``True`` and ``1.0`` pass as 1), or on an
    empty input.  A list of ``int`` 0s and 1s is checked in one aggregate
    pass; anything else takes the per-element loop.
    """
    if type(bits) is list and set(map(type, bits)) == {int} and _BITS.issuperset(bits):
        return bits.copy()
    out = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"{problem} input must be 0/1 bits, got {b!r}")
        out.append(int(b))
    if not out:
        raise ValueError(f"{problem} of an empty input is undefined here; pass >= 1 bit")
    return out


def fresh_allocator(machine: Machine) -> Allocator:
    """An allocator starting above everything the machine has written.

    Lets several algorithm invocations share one machine without address
    collisions; pass an explicit allocator to control layout instead.
    """
    if isinstance(machine, BSP):
        return Allocator()
    return Allocator(base=machine.next_free_address())


def model_name(machine: Machine) -> str:
    """Short model tag for result tables (checks subclasses before bases)."""
    from repro.core.qsm_gd import QSMGD
    from repro.models.mpc import MPC
    from repro.models.pem import PEM

    if isinstance(machine, SQSM):
        return "s-QSM"
    if isinstance(machine, QSMGD):
        return "QSM(g,d)"
    if isinstance(machine, QSM):
        return "QSM"
    if isinstance(machine, GSM):
        return "GSM"
    if isinstance(machine, PEM):
        return "PEM"
    if isinstance(machine, MPC):  # before BSP: MPC subclasses it
        return "MPC"
    if isinstance(machine, BSP):
        return "BSP"
    raise TypeError(f"unsupported machine type: {type(machine)!r}")


def default_tree_fanin(machine: Machine, contention_cheap: bool = False) -> int:
    """The fan-in the Section 8 algorithms use for reduction trees.

    * QSM with contention-cheap combining (OR-style write tournaments, or
      any read-based step whose contention is charged raw): fan-in ``g`` —
      the per-phase cost stays ``max(g, kappa) = g`` while the tree height
      shrinks to ``log n / log g``.
    * s-QSM (contention costs ``g`` each) and read-combining on the QSM
      (``m_rw`` costs ``g`` each): fan-in 2; larger fan-ins only raise the
      per-phase cost proportionally.
    * GSM: ``alpha`` reads per processor and ``beta`` contention fit in one
      big-step, so fan-in ``max(2, min(alpha, beta))``.
    * PEM: ``B`` reads per processor are one block I/O, so fan-in
      ``max(2, B)`` — the tree height shrinks to ``log n / log B`` at one
      I/O per level.
    """
    from repro.core.qsm_gd import QSMGD
    from repro.models.pem import PEM

    if isinstance(machine, SQSM):
        return 2
    if isinstance(machine, QSMGD):
        if contention_cheap:
            # Cost max(g, d*k) is flat until k = g/d.
            return max(2, int(machine.params.g / machine.params.d))
        return 2
    if isinstance(machine, QSM):
        if contention_cheap:
            return max(2, int(machine.params.g))
        return 2
    if isinstance(machine, GSM):
        prm = machine.params
        return max(2, int(min(prm.alpha, prm.beta)))
    if isinstance(machine, PEM):
        return max(2, int(machine.params.B))
    raise TypeError(f"tree fan-in undefined for machine type: {type(machine)!r}")


def bsp_fanin(machine: BSP) -> int:
    """BSP reduction fan-in ``max(2, L/g)``: receiving ``L/g`` messages costs
    ``g * (L/g) = L``, no more than the superstep floor ``L`` already charged.

    An :class:`~repro.models.mpc.MPC` machine (a BSP subclass carrying
    :class:`~repro.core.params.MPCParams` instead of g/L) dispatches to
    :func:`mpc_fanin`, so the ``*_bsp`` algorithms pick the ``s``-ary
    tuning on MPC without per-call-site changes.
    """
    from repro.models.mpc import MPC

    if isinstance(machine, MPC):
        return mpc_fanin(machine)
    if not isinstance(machine, BSP):
        raise TypeError(f"expected BSP, got {type(machine)!r}")
    prm = machine.params
    return max(2, int(prm.L // prm.g))


def mpc_fanin(machine: Any) -> int:
    """MPC reduction fan-in ``max(2, s)``: a machine may receive up to ``s``
    words per round at the unit round charge (``h <= s`` keeps
    :func:`repro.core.cost.mpc_round_cost` at its floor), so ``s``-ary
    reduction trees give the ``O(log_s n)``-round algorithms the MPC
    literature states."""
    from repro.models.mpc import MPC

    if not isinstance(machine, MPC):
        raise TypeError(f"expected MPC, got {type(machine)!r}")
    return max(2, int(machine.params.s))
