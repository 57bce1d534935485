"""Executable cost models: QSM, s-QSM, GSM, and BSP (Section 2 of the paper).

Each model is a discrete-event *cost simulator*: algorithms written against
the phase/superstep API execute with the model's memory or message semantics
enforced, and every phase is charged exactly the paper's cost formula.  The
simulated time these machines report is the quantity the paper's bounds
speak about.

Public surface
--------------

* Parameter dataclasses: :class:`QSMParams`, :class:`SQSMParams`,
  :class:`GSMParams`, :class:`BSPParams` (plus :class:`MPCParams` /
  :class:`PEMParams` for the post-1998 machines in :mod:`repro.models`).
* Machines: :class:`QSM`, :class:`SQSM`, :class:`GSM`, :class:`BSP`.
* Cost formulas (pure functions): :mod:`repro.core.cost`.
* Round accounting (Section 2.3): :mod:`repro.core.rounds`.
* GSM-to-other-model bound translation (Claims 2.1/2.2):
  :mod:`repro.core.mapping`.
"""

from repro.core.bsp import BSP, Superstep
from repro.core.gsm import GSM
from repro.core.machine import (
    BlockReadHandle,
    MemoryConflictError,
    Phase,
    PhaseClosedError,
    ReadHandle,
    SharedMemoryMachine,
)
from repro.core.params import (
    BSPParams,
    GSMParams,
    MPCParams,
    PEMParams,
    QSMParams,
    SQSMParams,
)
from repro.core.pram import PRAM, ConcurrencyViolation, PRAMParams
from repro.core.phase import PhaseRecord, SuperstepRecord
from repro.core.qsm import QSM
from repro.core.qsm_gd import QSMGD, QSMGDParams
from repro.core.rounds import RoundAuditor, RoundViolation, round_budget
from repro.core.sqsm import SQSM

__all__ = [
    "BSP",
    "GSM",
    "PRAM",
    "PRAMParams",
    "ConcurrencyViolation",
    "QSM",
    "QSMGD",
    "QSMGDParams",
    "SQSM",
    "Superstep",
    "Phase",
    "ReadHandle",
    "BlockReadHandle",
    "SharedMemoryMachine",
    "MemoryConflictError",
    "PhaseClosedError",
    "BSPParams",
    "GSMParams",
    "MPCParams",
    "PEMParams",
    "QSMParams",
    "SQSMParams",
    "PhaseRecord",
    "SuperstepRecord",
    "RoundAuditor",
    "RoundViolation",
    "round_budget",
]
