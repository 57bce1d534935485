"""OR algorithms (Section 8, last paragraph).

* :func:`or_tree_writes` — deterministic write-tournament tree.  Only the
  processors holding a 1 write to their group's parent cell, so a phase has
  ``m_rw = 1`` and contention at most the fan-in ``k``; on the QSM the phase
  costs ``max(g, k)``, so fan-in ``k = g`` gives the paper's
  ``O((g / log g) log n)``.  On the s-QSM contention costs ``g`` per unit, so
  the default fan-in is 2 and the bound ``O(g log n)``.
* :func:`or_sparse_random` — randomized OR with unit-time concurrent reads,
  a simplified adaptation of the QRQW algorithm of [9] the paper cites for
  ``O(g log n / log log n)`` w.h.p.  Fan-in ``max(g, ceil(log n / log log n))``
  write tournaments whose contention is kept near ``O(log n/ log log n)``
  w.h.p. by having each 1-holder first dart into a random slot of its
  group's slot array (deduplicating heavy groups before the tournament
  write).
* :func:`or_bsp` — local OR + (L/g)-ary reduction: ``O(g n/p + L log p /
  log(L/g))``, matching the ``O(L log n / log(L/g))`` claim (from [12]) at
  ``p = n``.
* :func:`or_rounds` — p-processor rounds version.  On the QSM the tournament
  fan-in can be ``g * n / p`` (contention is the round budget ``g n/p``), so
  the round count is ``O(log n / log(gn/p))`` — the *tight* QSM rounds bound
  of Table 1d; on the s-QSM fan-in ``n/p`` gives the tight
  ``O(log n / log(n/p))``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

from repro.algorithms.common import (
    Allocator,
    CostMeter,
    RunResult,
    bsp_fanin,
    check_bits,
    fresh_allocator,
)
from repro.core.bsp import BSP
from repro.core.gsm import GSM
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM
from repro.util.seeding import RngLike, derive_rng

__all__ = ["or_tree_writes", "or_sparse_random", "or_bsp", "or_rounds"]

SharedMachine = Union[QSM, SQSM, GSM]


def _default_or_fanin(machine: SharedMachine, n: int) -> int:
    from repro.core.qsm_gd import QSMGD

    if isinstance(machine, SQSM):
        return 2
    if isinstance(machine, QSMGD):
        # Contention costs d per unit: cost max(g, d*k) is flat to k = g/d.
        return max(2, int(machine.params.g / machine.params.d))
    if isinstance(machine, QSM):
        return max(2, int(machine.params.g))
    if isinstance(machine, GSM):
        # beta units of contention fit in a big-step.
        return max(2, int(machine.params.beta))
    from repro.models.pem import PEM

    if isinstance(machine, PEM):
        # Contention serializes at the block level (cost max(1, kappa)),
        # so write tournaments keep the binary fan-in; the block win is
        # on the read side (see parity's B-ary trees).
        return 2
    raise TypeError(f"unsupported machine: {type(machine)!r}")


def or_tree_writes(
    machine: SharedMachine,
    bits: Sequence[int],
    fan_in: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Deterministic write-tournament OR.

    Level structure: live values sit in an array; each position holding a 1
    writes a 1 to its parent cell (write phase, contention <= k), then one
    processor per parent reads its cell (read phase, contention 1) to learn
    the next level's value.  ``ceil(log_k n)`` levels.
    """
    values = check_bits(bits, "OR")
    n = len(values)
    k = fan_in if fan_in is not None else _default_or_fanin(machine, n)
    if k < 2:
        raise ValueError(f"fan-in must be >= 2, got {k}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    # The input is in memory per the model; each level value is owned by a
    # specific processor: position i's bit by processor i ab initio, and a
    # tournament cell's value by the processor that read it.  Writers at
    # every level are the owners, so information flows only through reads —
    # the discipline the influence-cone tracker and the adversaries rely on.
    base = alloc.alloc(n)
    machine.load(values, base=base)
    current = values
    owners = range(n)
    proc = n
    levels = 0
    while len(current) > 1:
        groups = -(-len(current) // k)
        nxt = alloc.alloc(groups)
        # An all-zero level leaves the phase empty; the model defines an
        # empty phase to have contention 1 and it is still charged.
        with machine.phase() as ph:
            ones = [i for i, v in enumerate(current) if v == 1]
            ph.write_each(
                [owners[i] for i in ones], [nxt + i // k for i in ones], [1] * len(ones)
            )
        readers = range(proc, proc + groups)
        with machine.phase() as ph:
            cells = ph.read_each(readers, range(nxt, nxt + groups))
        new_vals = []
        for got in cells.values:
            if isinstance(machine, GSM) and isinstance(got, tuple):
                got = 1 if any(x == 1 for x in got) else 0
            new_vals.append(1 if got == 1 else 0)
        proc += groups
        current = new_vals
        owners = readers
        levels += 1

    return meter.result(current[0], fan_in=k, levels=levels)


def or_sparse_random(
    machine: QSM,
    bits: Sequence[int],
    seed: RngLike = None,
    fan_in: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Randomized OR for the QSM with unit-time concurrent reads.

    Simplified adaptation of the QRQW OR of [9]: the tournament fan-in grows
    to ``k = max(g, ceil(log n / log log n))``, and before the tournament
    write each 1-holder darts into a random slot of its group's ``s``-slot
    scratch array (``s = ceil(k / log n)``), so the *expected* contention at
    the parent cell is ``O(s + log n)`` rather than ``k``.  The simulated
    cost is measured, not assumed: the dart phases' actual contention shows
    up in ``machine.time``.

    Requires ``machine.params.unit_time_concurrent_reads`` (the paper's
    claim is for that variant); raises otherwise.
    """
    if not isinstance(machine, QSM) or isinstance(machine, SQSM):
        raise TypeError("or_sparse_random targets the QSM")
    if not machine.params.unit_time_concurrent_reads:
        raise ValueError(
            "or_sparse_random models the concurrent-read variant; construct the "
            "QSM with QSMParams(unit_time_concurrent_reads=True)"
        )
    values = check_bits(bits, "OR")
    n = len(values)
    rng = derive_rng(seed)
    loglog = max(1.0, math.log2(max(2.0, math.log2(max(2, n)))))
    k = fan_in if fan_in is not None else max(
        2, int(machine.params.g), int(math.ceil(math.log2(max(2, n)) / loglog))
    )
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(n)
    machine.load(values, base=base)
    current = values
    proc = 0
    levels = 0
    while len(current) > 1:
        groups = -(-len(current) // k)
        slots_per_group = max(1, int(math.ceil(k / max(1.0, math.log2(max(2, n))))))
        slot_base = alloc.alloc(groups * slots_per_group)
        nxt = alloc.alloc(groups)

        # Dart phase: each 1-holder writes into a random slot of its group.
        with machine.phase() as ph:
            for i, v in enumerate(current):
                if v == 1:
                    slot = int(rng.integers(0, slots_per_group))
                    ph.write(proc + i, slot_base + (i // k) * slots_per_group + slot, 1)
        proc += len(current)

        # Slot scan: one processor per occupied-slot candidate reads its slot
        # (concurrent reads are unit-time, so this is cheap) and tournament-
        # writes to the parent; contention at the parent is the number of
        # *occupied slots*, at most slots_per_group.
        handles = []
        with machine.phase() as ph:
            for j in range(groups):
                for s in range(slots_per_group):
                    handles.append((j, ph.read(proc, slot_base + j * slots_per_group + s)))
                    proc += 1
        with machine.phase() as ph:
            for j, h in handles:
                if h.value == 1:
                    ph.write(h.proc, nxt + j, 1)

        read_handles = []
        with machine.phase() as ph:
            for j in range(groups):
                read_handles.append(ph.read(proc + j, nxt + j))
        current = [1 if h.value == 1 else 0 for h in read_handles]
        proc += groups
        levels += 1

    return meter.result(current[0], fan_in=k, levels=levels)


def or_bsp(machine: BSP, bits: Sequence[int]) -> RunResult:
    """BSP OR: local OR then (L/g)-ary reduction to component 0."""
    values = check_bits(bits, "OR")
    meter = CostMeter(machine)
    p = machine.p
    machine.scatter(values, key="or_in")
    k = bsp_fanin(machine)

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


def or_rounds(
    machine: SharedMachine,
    bits: Sequence[int],
    p: int,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """p-processor OR in rounds.

    One round of local OR over blocks of ``n/p``, then a write tournament
    whose fan-in uses the whole round budget: ``g * n / p`` on the QSM
    (contention is charged raw, budget ``g n / p``), ``n/p`` on the s-QSM
    and GSM.  Round counts match the Theta entries of Table 1d.
    """
    values = check_bits(bits, "OR")
    n = len(values)
    if p < 1 or p > n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    block = -(-n // p)
    base = alloc.alloc(n)
    machine.load(values, base=base)

    handles = []
    with machine.phase() as ph:
        for i in range(p):
            lo, hi = i * block, min((i + 1) * block, n)
            handles.append(ph.read_block(i, range(base + lo, base + hi)))
    partials = []
    for hs in handles:
        vals = []
        for got in hs.values:
            if isinstance(machine, GSM) and isinstance(got, tuple):
                got = got[0]
            vals.append(int(got))
        partials.append(1 if any(v == 1 for v in vals) else 0)

    if isinstance(machine, QSM) and not isinstance(machine, SQSM):
        fan = max(2, int(machine.params.g * n / p))
    else:
        fan = max(2, block)
    if len(partials) == 1:
        return meter.result(partials[0], p=p, fan_in=fan)
    inner = or_tree_writes(machine, partials, fan_in=fan, alloc=alloc)
    return meter.result(inner.value, p=p, fan_in=fan)
