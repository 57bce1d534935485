"""Post-1998 cost models grown on the shared phase-engine substrate.

The 1998 paper argues that QSM/s-QSM/BSP are *general-purpose* bridging
models whose bounds transfer across architectures; this package extends
the comparison to two modern general-purpose models, built as thin cost
machines over the same ``phase()`` / ``superstep()`` API:

* :class:`MPC` — Massively Parallel Computation (``p`` machines, local
  memory ``s``), a :class:`~repro.core.bsp.BSP` subclass whose rounds
  charge ``max(1, h/s)`` (:func:`repro.core.cost.mpc_round_cost`);
* :class:`PEM` — Parallel External Memory (private caches of ``M``
  words, block size ``B``), a
  :class:`~repro.core.machine.SharedMemoryMachine` subclass whose phases
  charge parallel block I/Os (:func:`repro.core.cost.pem_phase_cost`).

Parameters live with the 1998 ones in :mod:`repro.core.params`, the
matching lower bounds next to the 1998 formulas in
:mod:`repro.lowerbounds.formulas` (tables ``"mpc"`` / ``"pem"``), and the
cross-model comparison table in ``benchmarks/bench_cross_model.py``
(``python -m repro xmodel``).  Both machines support
``engine="reference"|"vector"``, ``record_costs=``, winner policies and
fault plans exactly like the 1998 machines — see docs/MODELS.md.
"""

from repro.core.params import MPCParams, PEMParams
from repro.models.mpc import MPC
from repro.models.pem import PEM

__all__ = ["MPC", "MPCParams", "PEM", "PEMParams"]
