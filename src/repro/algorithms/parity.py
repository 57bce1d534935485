"""Parity algorithms (Section 8, first paragraph).

Four implementations, matching the paper's claims:

* :func:`parity_tree` — plain k-ary read-combining tree.  With the default
  fan-in 2 this is the straightforward ``O(g log n)`` algorithm that is
  *tight* on the s-QSM (Theta(g log n), Table 1b).  On the GSM fan-in
  ``alpha`` packs each phase into one big-step.
* :func:`parity_blocks` — emulation of the depth-2 unbounded fan-in parity
  circuit, the ``O(g log n / log log g)`` QSM algorithm.  Each level splits
  the input into blocks of ``b`` bits and evaluates every block's parity in
  O(1) phases of cost O(g) using per-pattern mismatch detection:

  - one processor per (block, pattern, position) reads its input bit
    (per-bit read contention ``2^b``, so ``b = floor(log2 g)`` keeps the
    contention charge at ``g``),
  - mismatching processors write a flag to their pattern cell (write
    contention <= b),
  - one processor per pattern reads the flag cell; the unique pattern with
    no mismatch knows the block's bits and writes their parity.

  With unit-time concurrent reads (``QSMParams.unit_time_concurrent_reads``)
  the read contention is free and the block size grows to ``b = g``, giving
  the ``O(g log n / log g)`` variant that matches Theorem 3.1's bound for
  QSM-with-concurrent-reads *exactly* (the Theta entry of Table 1a).
* :func:`parity_bsp` — local XOR then an (L/g)-ary reduction tree:
  ``O(g n/p + L log p / log(L/g))``.
* :func:`parity_rounds` — p-processor rounds version (local blocks of n/p,
  then an (n/p)-ary tree): ``O(log n / log(n/p))`` rounds, the upper bound
  quoted under Table 1d.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import add, ne, xor
from typing import List, Optional, Sequence, Tuple, Union

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

__all__ = ["parity_tree", "parity_blocks", "parity_bsp", "parity_rounds"]

SharedMachine = Union[QSM, SQSM, GSM]


def _unwrap(machine: SharedMachine, value):
    if isinstance(machine, GSM) and isinstance(value, tuple):
        return value[0]
    return value


def _default_fanin(machine: SharedMachine, fan_in: Optional[int]) -> int:
    if fan_in is not None:
        if fan_in < 2:
            raise ValueError(f"fan-in must be >= 2, got {fan_in}")
        return fan_in
    if isinstance(machine, GSM):
        return max(2, int(machine.params.alpha))
    from repro.models.pem import PEM

    if isinstance(machine, PEM):
        # B reads are one block I/O: B-ary trees cost one I/O per level.
        return max(2, int(machine.params.B))
    return 2


def parity_tree(
    machine: SharedMachine,
    bits: Sequence[int],
    fan_in: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """k-ary read-combining parity tree.

    Each level: one read phase where a leader per group reads its k children
    (``m_rw = k``, contention 1) and one write phase for the group parities.
    Cost ``O(g k log_k n)`` on QSM/s-QSM; ``O(mu * log_alpha n)`` on the GSM
    with the default fan-in alpha.
    """
    values = check_bits(bits, "parity")
    k = _default_fanin(machine, fan_in)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(len(values))
    machine.load(values, base=base)
    size = len(values)
    proc = 0
    levels = 0
    while size > 1:
        groups = -(-size // k)
        nxt = alloc.alloc(groups)
        # Leader j reads its (up to) k children; one column over the level.
        leaders = range(proc, proc + groups)
        with machine.phase() as ph:
            children = ph.read_each(
                [proc + i // k for i in range(size)], range(base, base + size)
            )
        got = [int(_unwrap(machine, v)) for v in children.values]
        pars = [reduce(xor, got[j:j + k], 0) for j in range(0, size, k)]
        with machine.phase() as ph:
            ph.local_each(leaders, [min(k, size - j) for j in range(0, size, k)])
            ph.write_each(leaders, range(nxt, nxt + groups), pars)
        proc += groups
        base, size = nxt, groups
        levels += 1

    answer = int(_unwrap(machine, machine.peek(base)))
    return meter.result(answer, fan_in=k, levels=levels)


# The pattern-matching emulation spawns 2^b processors per block; the paper's
# QSM has unlimited processors but the simulator has finite memory, so default
# block widths are capped here.  Benchmarks sweeping the concurrent-reads
# variant keep g at or below 2^MAX_BLOCK_BITS (documented in EXPERIMENTS.md).
MAX_BLOCK_BITS = 10


def _block_size(machine: SharedMachine) -> int:
    """Block width for :func:`parity_blocks`, per the model's contention charge."""
    if isinstance(machine, QSM) and not isinstance(machine, SQSM):
        g = int(machine.params.g)
        if machine.params.unit_time_concurrent_reads:
            # Reads are free; write contention <= b caps the block at b = g.
            return min(max(2, g), MAX_BLOCK_BITS)
        # Read contention 2^b is charged raw: keep 2^b <= g.
        return min(max(2, g.bit_length() - 1), MAX_BLOCK_BITS)
    # s-QSM / GSM: contention is expensive; the block method degenerates, use 2.
    return 2


def parity_blocks(
    machine: QSM,
    bits: Sequence[int],
    block_size: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Depth-2 circuit emulation: parity via per-block pattern matching.

    Intended for the QSM (where contention is charged raw); see the module
    docstring for the phase structure.  The per-level cost is
    ``O(max(g, 2^b, b))`` and the level count ``ceil(log n / log b)``, so

    * plain QSM, ``b = log g``: ``O(g log n / log log g)`` total,
    * unit-time concurrent reads, ``b = g``: ``O(g log n / log g)`` total.
    """
    if not isinstance(machine, QSM) or isinstance(machine, SQSM):
        raise TypeError("parity_blocks targets the QSM; use parity_tree elsewhere")
    values = check_bits(bits, "parity")
    b = block_size if block_size is not None else _block_size(machine)
    if b < 2:
        raise ValueError(f"block size must be >= 2, got {b}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(len(values))
    machine.load(values, base=base)
    size = len(values)
    proc = 0
    levels = 0

    while size > 1:
        groups = -(-size // b)
        out_base = alloc.alloc(groups)
        flag_base = alloc.alloc(groups << b)  # mismatch flags, one per (block, pattern)
        # Block j holds bits j*b .. j*b + w_j - 1.  Its patterns q < 2^w_j
        # are numbered k = j*2^b + q — consecutive, as only the last block
        # can be narrower — and pattern k's flag is cell flag_base + k.
        widths = [b] * (groups - 1) + [size - (groups - 1) * b]
        patterns = ((groups - 1) << b) + (1 << widths[-1])
        tiles = {w: _block_tiles(w) for w in set(widths)}

        # Phase A: reader (block j, pattern q, position i) reads bit j*b+i;
        # readers are numbered in (j, q, i) order.
        addrs: List[int] = []
        flags: List[int] = []
        wants: List[int] = []
        for j, w in enumerate(widths):
            positions, pattern_of, want = tiles[w]
            addrs += map(add, positions, repeat(base + j * b))
            flags += map(add, pattern_of, repeat(flag_base + (j << b)))
            wants += want
        readers = range(proc, proc + len(addrs))
        proc += len(addrs)
        with machine.phase() as ph:
            bits_read = ph.read_each(readers, addrs)

        # Phase B: each mismatching reader flags its pattern cell.
        mismatch = list(map(ne, bits_read.values, wants))
        with machine.phase() as ph:
            flaggers = list(compress(readers, mismatch))
            ph.write_each(flaggers, list(compress(flags, mismatch)), [1] * len(flaggers))

        # Phase C: checker k reads the flag cell of pattern k.
        checkers = range(proc, proc + patterns)
        proc += patterns
        with machine.phase() as ph:
            flagged = ph.read_each(checkers, range(flag_base, flag_base + patterns))

        # Phase D: the unique unflagged pattern per block (no mismatch: q
        # is the block's contents) writes its parity.
        clean = [k for k, v in enumerate(flagged.values) if v is None]
        with machine.phase() as ph:
            pids = [checkers[k] for k in clean]
            ph.local_each(pids, 1)
            ph.write_each(
                pids,
                [out_base + (k >> b) for k in clean],
                [bin(k & ((1 << b) - 1)).count("1") & 1 for k in clean],
            )

        base, size = out_base, groups
        levels += 1

    answer = int(machine.peek(base) or 0)
    return meter.result(answer, block_size=b, levels=levels)


def _block_tiles(width: int) -> Tuple[List[int], List[int], List[int]]:
    """The readers of one ``width``-bit block, in (pattern q, position i)
    order, as columns: position ``i``, pattern ``q``, and bit ``i`` of ``q``."""
    positions = [i for _ in range(1 << width) for i in range(width)]
    pattern_of = [q for q in range(1 << width) for _ in range(width)]
    return positions, pattern_of, [(q >> i) & 1 for q, i in zip(pattern_of, positions)]


def parity_bsp(machine: BSP, bits: Sequence[int]) -> RunResult:
    """BSP parity: local XOR then (L/g)-ary reduction to component 0.

    Cost ``O(n/p)`` local work in the first superstep plus
    ``ceil(log p / log(L/g + 1))`` combine supersteps of cost ``L`` each.
    """
    values = check_bits(bits, "parity")
    meter = CostMeter(machine)
    p = machine.p
    machine.scatter(values, key="parity_in")
    k = bsp_fanin(machine)

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


def parity_rounds(
    machine: SharedMachine,
    bits: Sequence[int],
    p: int,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """p-processor parity that computes in rounds.

    One round of local XOR over blocks of ``ceil(n/p)`` bits, then an
    ``(n/p)``-ary :func:`parity_tree` over the p partial parities — every
    phase fits the ``O(g n/p)`` round budget, and the round count is
    ``O(1 + log p / log(n/p)) = O(log n / log(n/p))``.
    """
    values = check_bits(bits, "parity")
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
        par = 0
        for v in hs.values:
            par ^= int(_unwrap(machine, v))
        partials.append(par)

    if len(partials) == 1:
        return meter.result(partials[0], p=p, block=block)
    inner = parity_tree(machine, partials, fan_in=max(2, block), alloc=alloc)
    return meter.result(inner.value, p=p, block=block, fan_in=max(2, block))
