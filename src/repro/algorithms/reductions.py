"""Size-preserving reductions from Parity (Section 3, closing remark).

"The lower bounds we have obtained for the Parity problem imply
corresponding lower bounds for other problems such as list ranking and
sorting, since there are simple size-preserving reductions from parity to
these other problems."

This module makes those reductions executable, in the direction the paper
uses them: an n-bit parity instance becomes an n-element list-ranking (or
sorting) instance, the target problem is solved by the corresponding
algorithm on the machine, and the parity answer is decoded with O(1) extra
model cost.  A lower bound for parity therefore transfers to the target
problem, and — run forward — the reductions give alternative parity
algorithms whose measured cost benches the target algorithms.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.algorithms.common import (
    Allocator,
    CostMeter,
    RunResult,
    check_bits,
    fresh_allocator,
)
from repro.algorithms.list_ranking import list_rank
from repro.algorithms.sorting import sample_sort_bsp, sort_shared
from repro.core.bsp import BSP
from repro.core.gsm import GSM
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM

__all__ = ["parity_via_list_ranking", "parity_via_sorting", "parity_via_sorting_bsp"]

SharedMachine = Union[QSM, SQSM, GSM]


def parity_via_list_ranking(
    machine: SharedMachine,
    bits: Sequence[int],
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Parity of n bits via an n-node weighted list-ranking instance.

    The instance is the identity list ``0 -> 1 -> ... -> n-1`` with node
    weights equal to the bits; the head's weighted rank is the total number
    of ones, and its low bit is the parity.  Size-preserving: n bits -> n
    nodes.
    """
    values = check_bits(bits, "parity")
    n = len(values)
    meter = CostMeter(machine)
    next_ptrs = [i + 1 for i in range(n - 1)] + [None]
    ranking = list_rank(machine, next_ptrs, weights=values, alloc=alloc)
    total_ones = ranking.value[0]
    return meter.result(int(total_ones) & 1, total_ones=int(total_ones))


def parity_via_sorting(
    machine: SharedMachine,
    bits: Sequence[int],
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Parity via sorting the bit array (shared-memory sample sort).

    After sorting, the number of ones is ``n - (index of first 1)``; the
    decode is a local O(log n) binary search by one processor over the
    sorted array (charged as reads).
    """
    values = check_bits(bits, "parity")
    n = len(values)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    sorted_run = sort_shared(machine, values, alloc=alloc)
    sorted_bits = sorted_run.value

    # Store the sorted array and binary-search it in-model.
    base = alloc.alloc(n)
    with machine.phase() as ph:
        for i, v in enumerate(sorted_bits):
            ph.write(i, base + i, v)
    lo, hi = 0, n  # find the first index holding a 1
    while lo < hi:
        mid = (lo + hi) // 2
        with machine.phase() as ph:
            handle = ph.read(0, base + mid)
        got = handle.value
        if isinstance(machine, GSM) and isinstance(got, tuple):
            got = got[0]
        if got == 1:
            hi = mid
        else:
            lo = mid + 1
    ones = n - lo
    return meter.result(ones & 1, total_ones=ones)


def parity_via_sorting_bsp(machine: BSP, bits: Sequence[int]) -> RunResult:
    """Parity via BSP sample sort plus an O(1)-superstep decode.

    Component 0 learns each component's share of the sorted output
    (one message per component: an (n/p)-relation at worst) and counts ones.
    """
    values = check_bits(bits, "parity")
    meter = CostMeter(machine)
    sorted_run = sample_sort_bsp(machine, values)
    p = machine.p
    with machine.superstep() as ss:
        for i in range(p):
            bucket = machine.store[i].get("sort_out", [])
            ss.local(i, max(1, len(bucket)))
            if i != 0:
                ss.send(i, 0, ("ones", sum(1 for v in bucket if v == 1)))
    ones = sum(1 for v in machine.store[0].get("sort_out", []) if v == 1)
    for _, payload in machine.inbox(0):
        ones += payload[1]
    return meter.result(ones & 1, total_ones=ones)
