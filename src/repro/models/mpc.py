"""The MPC simulator (Massively Parallel Computation).

The model of Karloff–Suri–Vassilvitskii as used by the modern round
lower-bound literature (Charikar, Ma & Tan): ``p`` machines, each with
local memory ``s = n^epsilon`` words, computing in synchronous rounds.
Within a round every machine computes freely on its local store; between
rounds machines exchange messages, with each machine sending and
receiving at most ``s`` words.

The simulator rides the BSP superstep substrate unchanged — an MPC round
*is* a BSP superstep with a different charge — so the block sends, the
fault plans (drop/duplicate/delay/stall/crash) and the deterministic
delivery order all apply as-is.  Only the cost hooks differ:

* a round costs ``max(1, h / s)`` (:func:`repro.core.cost.mpc_round_cost`)
  — one round when the h-relation fits local memory, tiled over ``h/s``
  delivery slots when it does not — so ``machine.time`` is the effective
  round count the lower bounds are stated against;
* local work is free (``w`` never appears): MPC, like the GSM, is a
  communication-bounded model.

``machine.rounds`` is the raw superstep count and
``machine.max_message_volume`` the largest h-relation any round routed,
so both ingredients of the "rounds + per-round message volume" measure
stay separately observable next to the combined ``time``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.bsp import BSP
from repro.core.cost import mpc_cost_terms, mpc_round_cost
from repro.core.params import MPCParams
from repro.core.phase import SuperstepRecord

__all__ = ["MPC"]


class MPC(BSP):
    """MPC machine: ``p`` components with ``s`` words of local memory each.

    ``record_costs=True`` appends a
    :class:`~repro.obs.records.PhaseCostRecord` per committed round
    (terms ``round`` / ``h/s``, the dominant term, a received-messages
    histogram, per-machine op counts, wall time), exactly like the BSP.
    """

    model_label = "MPC"

    def __init__(
        self,
        p: int,
        params: Optional[MPCParams] = None,
        seed: Optional[int] = 0,
        record_costs: bool = False,
        fault_plan: Optional[Any] = None,
    ) -> None:
        super().__init__(
            p,
            seed=seed,
            record_costs=record_costs,
            fault_plan=fault_plan,
        )
        self.params = params if params is not None else MPCParams()

    # -- cost hooks ----------------------------------------------------------

    def _cost_terms(self, record: SuperstepRecord) -> Dict[str, float]:
        """Evaluated terms of ``max(1, h/s)`` (see
        :func:`repro.core.cost.mpc_cost_terms` for the tie order)."""
        return mpc_cost_terms(record, self.params)

    def _superstep_cost(self, record: SuperstepRecord) -> float:
        return mpc_round_cost(record, self.params)

    # -- observability -------------------------------------------------------

    @property
    def rounds(self) -> int:
        """Raw communication rounds (= committed supersteps)."""
        return self.superstep_count

    @property
    def max_message_volume(self) -> int:
        """Largest h-relation any round routed (words per machine)."""
        return max((rec.h for rec in self.history), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MPC(p={self.p}, s={self.params.s}, rounds={self.rounds}, "
            f"time={self.time})"
        )
