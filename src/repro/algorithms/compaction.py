"""Linear Approximate Compaction (Section 8, middle paragraph).

**Problem (h-LAC):** given an array of ``n`` cells of which at most ``h``
hold one item each (the rest empty), insert the items into an array of size
``O(h)``.

Two implementations:

* :func:`lac_dart` — randomized dart throwing, a simplified adaptation of
  the QRQW algorithm of Gibbons, Matias & Ramachandran [9] that the paper
  cites for its ``O(sqrt(g log n) + g log log n)`` w.h.p. QSM upper bound.
  Round ``t`` uses a *fresh* target segment of ``m_t ~ 4h / 2^t`` slots:
  every live item writes its id into a random slot (arbitrary-winner
  resolves collisions), reads it back, and either claims the slot or retries
  in round ``t+1``.  Fresh segments mean a claimed slot is never clobbered,
  and the expected number of survivors of a round is ``live^2 / m_t``, so
  the live count decays doubly exponentially: ``O(log log n)`` rounds w.h.p.
  The segments sum to ``<= 8h + O(log n)`` cells — a valid O(h) destination.
  Our simplification relative to [9]: we do not micro-balance the per-phase
  contention against the gap (the source of their ``sqrt(g log n)`` term);
  the measured cost is ``O(g log log n + max-contention)`` and the benches
  report the measured contention so the gap to the paper's bound is visible.
* :func:`lac_prefix` — deterministic exact compaction by prefix sums
  (``O(g k log_k n)`` time, here k=2): the baseline the paper mentions as
  the best known *rounds* algorithm for LAC.

Both return an output array with the items packed (dart: at their claimed
slots inside O(h) cells; prefix: exactly ranked) and ``None`` elsewhere;
the verifier in :mod:`repro.problems.compaction` checks the LAC contract.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.algorithms.common import Allocator, CostMeter, RunResult, fresh_allocator
from repro.algorithms.prefix import prefix_sums
from repro.core.gsm import GSM
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM
from repro.util.seeding import RngLike, derive_rng

__all__ = ["lac_dart", "lac_prefix", "lac_prefix_rounds", "lac_bsp"]

SharedMachine = Union[QSM, SQSM, GSM]


def _items_of(array: Sequence[Any]) -> List[Tuple[int, Any]]:
    return [(i, v) for i, v in enumerate(array) if v is not None]


def lac_dart(
    machine: SharedMachine,
    array: Sequence[Any],
    h: Optional[int] = None,
    expansion: int = 4,
    seed: RngLike = None,
    max_rounds: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Randomized LAC by dart throwing into geometrically shrinking segments.

    Parameters
    ----------
    array:
        Input cells; ``None`` marks empty.
    h:
        Bound on the number of items (defaults to the actual count; the
        algorithm only uses it to size the destination).
    expansion:
        First segment holds ``expansion * h`` slots.
    max_rounds:
        Safety cap; when exhausted the stragglers are placed by the
        deterministic :func:`lac_prefix` fallback (counted in ``extra``).

    Returns the destination array (size ``O(h)``), with ``extra`` reporting
    ``rounds``, ``max_contention`` and ``fallback_items``.
    """
    n = len(array)
    items = _items_of(array)
    count = len(items)
    if h is None:
        h = count
    if count > h:
        raise ValueError(f"array holds {count} items but h={h}")
    if expansion < 2:
        raise ValueError(f"expansion must be >= 2, got {expansion}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    rng = derive_rng(seed)
    if max_rounds is None:
        max_rounds = 4 * int(math.ceil(math.log2(max(4, math.log2(max(4, n)))))) + 8

    if count == 0:
        return meter.result([], rounds=0, max_contention=0, fallback_items=0)

    # Destination: consecutive fresh segments.  Segment t has
    # max(expansion * h // 2**t, 2 * live) slots, so it is always at least
    # twice the live count and the total stays O(h).
    out_cells: List[int] = []  # absolute addresses, in destination order
    segments: List[Tuple[int, int]] = []  # (base, size)
    placed: dict = {}  # absolute address -> item value
    live = list(items)  # (orig_index, value)
    rounds = 0
    max_contention = 0

    while live and rounds < max_rounds:
        m_t = max(expansion * h // (2**rounds), 2 * len(live), 2)
        seg_base = alloc.alloc(m_t)
        segments.append((seg_base, m_t))
        # Phase 1: every live item darts into a random slot of the fresh
        # segment, writing a unique tag (its original index).
        tags = [orig_idx for orig_idx, _ in live]
        slots = [seg_base + int(rng.integers(0, m_t)) for _ in live]
        with machine.phase() as ph:
            ph.write_each(tags, slots, tags)
        max_contention = max(max_contention, machine.history[-1].kappa)
        # Phase 2: each dart-thrower reads its slot back; the tag that
        # survived the arbitrary-winner write owns the slot.
        with machine.phase() as ph:
            owners = ph.read_each(tags, slots)
        max_contention = max(max_contention, machine.history[-1].kappa)
        survivors: List[Tuple[int, Any]] = []
        winners: List[Tuple[int, Any, int]] = []
        for (orig_idx, value), slot, got in zip(live, slots, owners.values):
            if isinstance(machine, GSM) and isinstance(got, tuple):
                # Strong queuing keeps every tag; lowest-indexed writer wins
                # by convention so the protocol still elects one owner.
                got = min(got)
            if got == orig_idx:
                winners.append((orig_idx, value, slot))
            else:
                survivors.append((orig_idx, value))
        # Phase 3: winners deposit their payloads (contention 1 per slot).
        if winners:
            won_tags, won_values, won_slots = zip(*winners)
            with machine.phase() as ph:
                ph.write_each(won_tags, won_slots, won_values)
            placed.update(zip(won_slots, won_values))
        live = survivors
        rounds += 1

    fallback_items = len(live)
    if live:
        # Deterministic mop-up for the (w.h.p. empty) remainder: item j of
        # the remainder goes to cell j of a fresh segment twice its size.
        tail_size = max(1, 2 * len(live))
        seg_base = alloc.alloc(tail_size)
        segments.append((seg_base, tail_size))
        cells = range(seg_base, seg_base + len(live))
        values = [v for _, v in live]
        with machine.phase() as ph:
            ph.write_each(range(len(live)), cells, values)
        placed.update(zip(cells, values))

    # Materialise the destination array in segment order.
    out: List[Any] = []
    for seg_base, size in segments:
        for off in range(size):
            out.append(placed.get(seg_base + off))
    return meter.result(
        out,
        rounds=rounds,
        max_contention=max_contention,
        fallback_items=fallback_items,
        destination_size=len(out),
    )


def lac_prefix(
    machine: SharedMachine,
    array: Sequence[Any],
    h: Optional[int] = None,
    fan_in: int = 2,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Deterministic exact compaction: rank items by prefix sums, then write.

    Time ``O(g * fan_in * log n / log fan_in)``; output has size exactly the
    item count (stronger than the O(h) the LAC contract requires).
    """
    n = len(array)
    items = _items_of(array)
    if h is not None and len(items) > h:
        raise ValueError(f"array holds {len(items)} items but h={h}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    if n == 0 or not items:
        return meter.result([], destination_size=0)

    indicator = [0 if v is None else 1 for v in array]
    scan = prefix_sums(machine, indicator, fan_in=fan_in, alloc=alloc)
    ranks = scan.value  # inclusive: rank of item at i is ranks[i] - 1

    out_base = alloc.alloc(len(items))
    with machine.phase() as ph:
        ph.write_each(
            [i for i, _ in items],
            [out_base + ranks[i] - 1 for i, _ in items],
            [v for _, v in items],
        )

    out = [machine.peek(out_base + j) for j in range(len(items))]
    if isinstance(machine, GSM):
        out = [v[0] if isinstance(v, tuple) else v for v in out]
    return meter.result(out, destination_size=len(out))


def lac_prefix_rounds(
    machine: SharedMachine,
    array: Sequence[Any],
    p: int,
    h: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """p-processor LAC that computes in rounds (the Section 8 baseline).

    Structure: one round in which each processor ranks its block of
    ``ceil(n/p)`` cells via :func:`~repro.algorithms.prefix.prefix_sums_rounds`
    over the indicator array, then one round in which each processor writes
    its block's items to their ranked destinations (at most ``n/p`` writes
    per processor — inside the round budget).  Round count
    ``O(log n / log(n/p))``, matching the prefix-sums entry the paper quotes
    under Table 1d.
    """
    from repro.algorithms.prefix import prefix_sums_rounds

    n = len(array)
    items = _items_of(array)
    if h is not None and len(items) > h:
        raise ValueError(f"array holds {len(items)} items but h={h}")
    if p < 1 or p > max(n, 1):
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    if n == 0 or not items:
        return meter.result([], destination_size=0, p=p)

    indicator = [0 if v is None else 1 for v in array]
    scan = prefix_sums_rounds(machine, indicator, p=p, alloc=alloc)
    ranks = scan.value

    out_base = alloc.alloc(len(items))
    block = -(-n // p)
    with machine.phase() as ph:
        for proc in range(p):
            lo, hi = proc * block, min((proc + 1) * block, n)
            to_write = [
                (out_base + ranks[i] - 1, array[i])
                for i in range(lo, hi)
                if array[i] is not None
            ]
            ph.write_block(proc, to_write)
            ph.local(proc, max(1, len(to_write)))

    out = [machine.peek(out_base + j) for j in range(len(items))]
    if isinstance(machine, GSM):
        out = [v[0] if isinstance(v, tuple) else v for v in out]
    return meter.result(out, destination_size=len(out), p=p)


def lac_bsp(machine, array: Sequence[Any], h: Optional[int] = None) -> RunResult:
    """LAC on the BSP: local compaction, a scan over counts, one routing step.

    Each component compacts its ``ceil(n/p)`` cells locally, the per-
    component item counts are scanned with an (L/g)-ary tree, and one
    superstep routes every item to its ranked owner (an ``O(n/p)``-relation
    when items are spread; the measured ``h`` shows up in the superstep
    cost).  Output: the compacted items in input order, gathered from
    ``store[i]['lac_out']``.
    """
    from repro.algorithms.prefix import prefix_sums_bsp
    from repro.core.bsp import BSP as _BSP

    if not isinstance(machine, _BSP):
        raise TypeError(f"lac_bsp expects a BSP machine, got {type(machine)!r}")
    n = len(array)
    items = _items_of(array)
    if h is not None and len(items) > h:
        raise ValueError(f"array holds {len(items)} items but h={h}")
    meter = CostMeter(machine)
    if n == 0 or not items:
        return meter.result([], destination_size=0)
    p = machine.p
    machine.scatter(list(array), key="lac_in")

    # Superstep 1: local compaction + counts.
    local_items = []
    counts = []
    with machine.superstep() as ss:
        for i in range(p):
            block = machine.store[i]["lac_in"]
            ss.local(i, max(1, len(block)))
            mine = [v for v in block if v is not None]
            local_items.append(mine)
            counts.append(len(mine))

    # Scan the counts (reuses the BSP prefix-sums tree).
    scan = prefix_sums_bsp(machine, counts)
    offsets = [incl - c for incl, c in zip(scan.value, counts)]

    # Superstep: route items to their ranked owners (quota ceil(total/p)).
    total = sum(counts)
    quota = -(-total // p)
    incoming = [[] for _ in range(p)]
    with machine.superstep() as ss:
        for i in range(p):
            ss.local(i, max(1, len(local_items[i])))
            msgs = []
            for j, v in enumerate(local_items[i]):
                rank = offsets[i] + j
                owner = rank // quota
                if owner == i:
                    incoming[i].append((rank, v))
                else:
                    msgs.append((owner, (rank, v)))
            ss.send_block(i, msgs)
    for i in range(p):
        for _, payload in machine.inbox(i):
            incoming[i].append(payload)

    out = [None] * total
    with machine.superstep() as ss:
        for i in range(p):
            ss.local(i, max(1, len(incoming[i])))
            machine.store[i]["lac_out"] = sorted(incoming[i])
            for rank, v in incoming[i]:
                out[rank] = v
    return meter.result(out, destination_size=total, quota=quota)
