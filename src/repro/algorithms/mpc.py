"""MPC-native algorithms: s-ary aggregation and distributed pointer jumping.

The MPC machine (:mod:`repro.models.mpc`) is a BSP subclass, so every
``*_bsp`` algorithm in this package already runs on it — but with the BSP
fan-in ``L/g``, which is the wrong tuning knob: MPC rounds cost
``max(1, h/s)``, so the free quantity per round is ``s`` *words per
machine*, not ``L/g`` messages.  The implementations here re-tune the trees
to :func:`repro.algorithms.common.mpc_fanin` (``max(2, s)``):

* :func:`parity_mpc`, :func:`or_mpc` — local reduce then an ``s``-ary
  reduction tree: ``O(log_s p)`` rounds, each at the unit charge because a
  leader receives at most ``s - 1`` words.  With ``s = n^epsilon`` this is
  the classic ``O(1/epsilon)``-round MPC aggregation.
* :func:`list_rank_mpc` — distributed pointer jumping.  Nodes are
  block-distributed; each jump is a query round (every active node asks the
  owner of its successor) plus a reply round, so ``ceil(log2 n)`` jumps cost
  ``O(log n)`` rounds at ``h ≈ n/p`` per round.  This is the baseline the
  Charikar–Ma–Tan conditional lower bound (``Ω(log n)`` rounds unless the
  1-vs-2-cycles conjecture fails, see ``repro.lowerbounds.formulas``) says
  one cannot beat by a polynomial factor when ``s = n^epsilon``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.algorithms.common import CostMeter, RunResult, check_bits, mpc_fanin
from repro.models.mpc import MPC

__all__ = ["parity_mpc", "or_mpc", "list_rank_mpc"]


def _require_mpc(machine) -> None:
    if not isinstance(machine, MPC):
        raise TypeError(f"expected MPC, got {type(machine)!r}")


def parity_mpc(machine: MPC, bits: Sequence[int]) -> RunResult:
    """MPC parity: local XOR then an s-ary reduction to machine 0.

    ``ceil(log_s p)`` combine rounds after the local round; every round's
    ``h`` is at most ``max(n/p, s - 1)``, so for ``n <= p * s`` each round
    is charged the unit floor and the measured cost is the round count.
    """
    _require_mpc(machine)
    values = check_bits(bits, "parity")
    meter = CostMeter(machine)
    p = machine.p
    machine.scatter(values, key="parity_in")
    k = mpc_fanin(machine)

    partial: List[int] = []
    with machine.superstep() as ss:
        for i in range(p):
            block = machine.store[i]["parity_in"]
            ss.local(i, max(1, len(block)))
            par = 0
            for v in block:
                par ^= int(v)
            partial.append(par)

    group = 1
    while group < p:
        with machine.superstep() as ss:
            for leader in range(0, p, group * k):
                for child_idx in range(1, k):
                    child = leader + child_idx * group
                    if child < p:
                        ss.send(child, leader, partial[child])
        for leader in range(0, p, group * k):
            acc = partial[leader]
            for _, payload in machine.inbox(leader):
                acc ^= int(payload)
            partial[leader] = acc
        group *= k

    return meter.result(partial[0], fan_in=k)


def or_mpc(machine: MPC, bits: Sequence[int]) -> RunResult:
    """MPC OR: local OR then an s-ary reduction to machine 0.

    Same round structure as :func:`parity_mpc`; only machines holding a 1
    send, so ``h`` per combine round is at most ``k - 1 <= s``.
    """
    _require_mpc(machine)
    values = check_bits(bits, "OR")
    meter = CostMeter(machine)
    p = machine.p
    machine.scatter(values, key="or_in")
    k = mpc_fanin(machine)

    partial: List[int] = []
    with machine.superstep() as ss:
        for i in range(p):
            block = machine.store[i]["or_in"]
            ss.local(i, max(1, len(block)))
            partial.append(1 if any(v == 1 for v in block) else 0)

    group = 1
    while group < p:
        with machine.superstep() as ss:
            sent = False
            for leader in range(0, p, group * k):
                for child_idx in range(1, k):
                    child = leader + child_idx * group
                    if child < p and partial[child] == 1:
                        ss.send(child, leader, 1)
                        sent = True
            if not sent:
                ss.local(0, 1)
        for leader in range(0, p, group * k):
            if machine.inbox(leader):
                partial[leader] = 1
        group *= k

    return meter.result(partial[0], fan_in=k)


def list_rank_mpc(
    machine: MPC,
    next_ptrs: Sequence[Optional[int]],
    weights: Optional[Sequence[float]] = None,
) -> RunResult:
    """Weighted distance-to-tail by distributed pointer jumping.

    Delegates to :func:`repro.algorithms.list_ranking.list_rank_bsp` (the
    superstep structure is identical) but insists on an MPC machine: here
    the two rounds per jump are charged ``max(1, h/s)`` each, so with
    ``s >= n/p`` the measured cost is ``Theta(log n)`` rounds — the
    baseline the conditional :func:`repro.lowerbounds.formulas.mpc_listrank_rounds`
    bound says cannot be beaten by a polynomial factor.
    """
    from repro.algorithms.list_ranking import list_rank_bsp

    _require_mpc(machine)
    return list_rank_bsp(machine, next_ptrs, weights)
