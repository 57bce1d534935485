"""Prefix sums (scan) — the workhorse substrate for the rounds upper bounds.

Section 8 notes that the best algorithms *that compute in rounds* for
parity, OR and LAC are the simple prefix-sums algorithms; their round counts
match the Table 1 round lower bounds on the s-QSM and BSP
(``Theta(log n / log(n/p))``) and on the QSM for OR
(``Theta(log n / log(gn/p))`` via write tournaments, see :mod:`or_`).

Three implementations:

* :func:`prefix_sums` — k-ary up/down sweep with unbounded processors;
  O(g * k * log_k n) time on QSM/s-QSM (k=2 gives the classic O(g log n)).
* :func:`prefix_sums_rounds` — p-processor, computes in rounds: one round of
  local summing over blocks of n/p, a (n/p)-ary tree over the p block sums
  (each level is one round), then one round of local prefix writing.
* :func:`prefix_sums_bsp` — the BSP version with fan-in L/g.

All return the inclusive prefix array under ``+`` (any values addable by
``+`` work; the tests use ints).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any, List, Optional, Sequence, Union

from repro.algorithms.common import Allocator, CostMeter, RunResult, bsp_fanin, fresh_allocator
from repro.core.bsp import BSP
from repro.core.gsm import GSM
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM

__all__ = ["prefix_sums", "prefix_sums_rounds", "prefix_sums_bsp"]

SharedMachine = Union[QSM, SQSM, GSM]


def _unwrap(machine: SharedMachine, value: Any) -> Any:
    """GSM cells hold tuples; fetch the (single) payload uniformly."""
    if isinstance(machine, GSM) and isinstance(value, tuple):
        if len(value) != 1:
            raise ValueError(f"expected singleton GSM cell, found {value!r}")
        return value[0]
    return value


def prefix_sums(
    machine: SharedMachine,
    values: Sequence[Any],
    fan_in: int = 2,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Inclusive k-ary scan with one (virtual) processor per tree node.

    Cost: ``2 * ceil(log_k n)`` read phases and as many write phases, each
    of cost ``O(g * k)`` (fan-in reads/writes dominate; contention is 1
    throughout).  Returns the inclusive prefix list.
    """
    n = len(values)
    if n == 0:
        return RunResult(value=[], time=0.0, phases=0)
    if fan_in < 2:
        raise ValueError(f"fan-in must be >= 2, got {fan_in}")
    k = fan_in
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    # ---- build levels: level 0 = input, level i+1 = k-ary group sums -----
    level_base: List[int] = [alloc.alloc(n)]
    level_size: List[int] = [n]
    machine.load(list(values), base=level_base[0])
    # Local copies the leader processors legitimately hold after reading.
    level_vals: List[List[Any]] = [list(values)]

    proc_counter = 0
    while level_size[-1] > 1:
        m = level_size[-1]
        groups = -(-m // k)
        base_next = alloc.alloc(groups)
        # Leader j reads its (up to) k children, then writes their sum.
        leaders = range(proc_counter, proc_counter + groups)
        with machine.phase() as ph:
            children = ph.read_each(
                [proc_counter + i // k for i in range(m)],
                range(level_base[-1], level_base[-1] + m),
            )
        got = _unwrap_all(machine, children.values)
        sums: List[Any] = [reduce(add, got[j:j + k]) for j in range(0, m, k)]
        with machine.phase() as ph:
            ph.local_each(leaders, [min(k, m - j) for j in range(0, m, k)])
            ph.write_each(leaders, range(base_next, base_next + groups), sums)
        proc_counter += groups
        level_base.append(base_next)
        level_size.append(groups)
        level_vals.append(sums)

    # ---- downsweep: exclusive offsets flow from the root ------------------
    # offsets[i][j] = sum of all elements strictly before group j at level i.
    top = len(level_size) - 1
    offset_base: List[Optional[int]] = [None] * (top + 1)
    offset_base[top] = alloc.alloc(1)
    with machine.phase() as ph:
        ph.write(0, offset_base[top], _zero_like(level_vals[top][0]))

    for lvl in range(top, 0, -1):
        m = level_size[lvl - 1]
        groups = level_size[lvl]
        offset_base[lvl - 1] = alloc.alloc(m)
        # Leader j reads its group's offset, then writes the running
        # offsets of its (up to) k children.
        leaders = range(proc_counter, proc_counter + groups)
        with machine.phase() as ph:
            offsets = ph.read_each(
                leaders, range(offset_base[lvl], offset_base[lvl] + groups)
            )
        below = level_vals[lvl - 1]
        running: List[Any] = []
        for j, group_offset in enumerate(_unwrap_all(machine, offsets.values)):
            for i in range(j * k, min((j + 1) * k, m)):
                running.append(group_offset)
                group_offset = group_offset + below[i]
        with machine.phase() as ph:
            ph.local_each(leaders, [min(k, m - j) for j in range(0, m, k)])
            ph.write_each(
                [proc_counter + i // k for i in range(m)],
                range(offset_base[lvl - 1], offset_base[lvl - 1] + m),
                running,
            )
        proc_counter += groups

    # The inclusive prefix at i is offset[0][i] + value[i]; read them out.
    with machine.phase() as ph:
        handle = ph.read_each(range(n), range(offset_base[0], offset_base[0] + n))
    prefix = list(map(add, _unwrap_all(machine, handle.values), level_vals[0]))
    return meter.result(prefix, fan_in=k, levels=top)


def _unwrap_all(machine: SharedMachine, values: List[Any]) -> List[Any]:
    """:func:`_unwrap` over a list of read values."""
    if isinstance(machine, GSM):
        return [_unwrap(machine, v) for v in values]
    return values


def _zero_like(sample: Any) -> Any:
    """Additive identity compatible with ``sample`` (int/float/str/list/tuple)."""
    if isinstance(sample, bool):
        return 0
    if isinstance(sample, (int, float, complex)):
        return type(sample)(0)
    if isinstance(sample, str):
        return ""
    if isinstance(sample, (list, tuple)):
        return type(sample)()
    raise TypeError(f"no additive identity known for {type(sample)!r}")


def prefix_sums_rounds(
    machine: SharedMachine,
    values: Sequence[Any],
    p: int,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """p-processor prefix sums that computes in rounds.

    Round structure (each phase fits the ``O(g n / p)`` round budget):

    1. one round: processor ``i`` reads its block of ``ceil(n/p)`` inputs,
    2. ``O(log p / log(n/p))`` rounds: an ``(n/p)``-ary scan tree over the
       ``p`` block sums,
    3. one round: processor ``i`` writes its block's ``ceil(n/p)`` prefixes.

    Total rounds ``O(1 + log p / log(n/p)) = O(log n / log(n/p))`` —
    the matching upper bound for the last row block of Table 1.
    """
    n = len(values)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p > max(n, 1):
        raise ValueError(f"rounds mode needs p <= n, got p={p}, n={n}")
    if n == 0:
        return RunResult(value=[], time=0.0, phases=0)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    block = -(-n // p)
    in_base = alloc.alloc(n)
    machine.load(list(values), base=in_base)

    # Round 1: local block sums (one phase, m_rw = block <= ceil(n/p)).
    blocks: List[List[Any]] = []
    handles = []
    with machine.phase() as ph:
        for i in range(p):
            lo, hi = i * block, min((i + 1) * block, n)
            handles.append(ph.read_block(i, range(in_base + lo, in_base + hi)))
    block_sums: List[Any] = []
    sums_base = alloc.alloc(p)
    with machine.phase() as ph:
        for i, hs in enumerate(handles):
            got = [_unwrap(machine, v) for v in hs.values]
            blocks.append(got)
            if got:
                total = got[0]
                for v in got[1:]:
                    total = total + v
            else:
                total = _zero_like(values[0])
            ph.local(i, max(1, len(got)))
            ph.write(i, sums_base + i, total)
            block_sums.append(total)

    # Rounds 2..: (block)-ary scan over the p block sums, reusing prefix_sums
    # with fan-in n/p so every phase stays inside the round budget.
    fan = max(2, block)
    inner = prefix_sums(machine, block_sums, fan_in=fan, alloc=alloc)
    incl = inner.value
    # Exclusive offsets per block.
    offsets = [_zero_like(block_sums[0])] + incl[:-1]

    # Final round: each processor writes its block's inclusive prefixes.
    out_base = alloc.alloc(n)
    with machine.phase() as ph:
        for i in range(p):
            running = offsets[i]
            lo = i * block
            ph.local(i, max(1, len(blocks[i])))
            items = []
            for j, v in enumerate(blocks[i]):
                running = running + v
                items.append((out_base + lo + j, running))
            ph.write_block(i, items)

    prefix = [_unwrap(machine, machine.peek(out_base + j)) for j in range(n)]
    return meter.result(prefix, p=p, block=block, fan_in=fan)


def prefix_sums_bsp(machine: BSP, values: Sequence[Any]) -> RunResult:
    """BSP prefix sums: local scan, (L/g)-ary tree over block sums, local add.

    Supersteps: ``O(log p / log(L/g))`` tree levels (each costing ``L``)
    plus O(1) local supersteps of work ``O(n/p)``.
    """
    n = len(values)
    p = machine.p
    if n == 0:
        return RunResult(value=[], time=0.0, phases=0)
    meter = CostMeter(machine)
    machine.scatter(list(values), key="scan_in")
    k = bsp_fanin(machine)

    # Local inclusive scans + block sums.
    local_prefix: List[List[Any]] = []
    block_sums: List[Any] = []
    with machine.superstep() as ss:
        for i in range(p):
            block = machine.store[i]["scan_in"]
            ss.local(i, max(1, len(block)))
            running = None
            pref = []
            for v in block:
                running = v if running is None else running + v
                pref.append(running)
            local_prefix.append(pref)
            block_sums.append(running if running is not None else _zero_like(values[0]))

    # Tree-combine block sums: leaders at each level gather k child sums.
    # We orchestrate the tree over component ids 0..p-1 (component j at level
    # l is a leader iff j % k**l == 0).
    level = 1
    carry = list(block_sums)  # carry[j] = sum of the k**(level-1)-block group led by j
    group = 1
    while group < p:
        with machine.superstep() as ss:
            for leader in range(0, p, group * k):
                for child_idx in range(1, k):
                    child = leader + child_idx * group
                    if child < p:
                        ss.send(child, leader, ("sum", child, carry[child]))
        for leader in range(0, p, group * k):
            total = carry[leader]
            for _, payload in machine.inbox(leader):
                total = total + payload[2]
            carry[leader] = total
        group *= k
        level += 1

    # Downsweep: leaders send exclusive offsets to children, level by level
    # (top-down over the same group sizes the upsweep used).
    offsets = [None] * p
    offsets[0] = _zero_like(values[0])
    levels = []
    g_size = 1
    while g_size < p:
        levels.append(g_size)
        g_size *= k
    for g_size in reversed(levels):
        with machine.superstep() as ss:
            for leader in range(0, p, g_size * k):
                if offsets[leader] is None:
                    continue
                running = offsets[leader]
                for child_idx in range(k):
                    child = leader + child_idx * g_size
                    if child >= p:
                        break
                    if child != leader:
                        ss.send(leader, child, ("offset", running))
                    # Child's group contribution: sum of blocks in its subgroup.
                    sub = _group_sum(block_sums, child, g_size, p)
                    running = running + sub
        for comp in range(p):
            for _, payload in machine.inbox(comp):
                if payload[0] == "offset":
                    offsets[comp] = payload[1]

    # Final local add.
    out: List[Any] = []
    with machine.superstep() as ss:
        for i in range(p):
            ss.local(i, max(1, len(local_prefix[i])))
            off = offsets[i] if offsets[i] is not None else _zero_like(values[0])
            for v in local_prefix[i]:
                out.append(off + v)
    return meter.result(out, fan_in=k)


def _group_sum(block_sums: List[Any], start: int, width: int, p: int) -> Any:
    total = None
    for j in range(start, min(start + width, p)):
        total = block_sums[j] if total is None else total + block_sums[j]
    if total is None:
        raise AssertionError("empty group in BSP scan")  # pragma: no cover
    return total
