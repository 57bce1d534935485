"""Immutable per-phase / per-superstep accounting records.

A :class:`PhaseRecord` captures everything the Section 2 cost formulas need
about one shared-memory phase — per-processor read, write and local-op
counts, and per-cell reader/writer queue lengths — plus the derived
aggregates ``m_op``, ``m_rw`` and ``kappa``.  A :class:`SuperstepRecord`
is the BSP analogue (local work and the ``h``-relation).

These records are produced by the machines and consumed by three clients:
the cost functions in :mod:`repro.core.cost`, the round auditor in
:mod:`repro.core.rounds`, and the lower-bound engines in
:mod:`repro.lowerbounds`, which replay them to drive degree recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping

__all__ = ["PhaseRecord", "SuperstepRecord", "queue_max"]


def queue_max(queue: Mapping[int, int], default: int = 0) -> int:
    """``max(queue.values(), default=default)`` for a per-cell queue mapping.

    Queue mappings may be plain dicts (reference engine) or compact lazy
    mappings exposing a ``max_value()`` aggregate (the vector engine's
    ``CountQueue``); routing aggregation through here keeps the cost
    formulas O(1) on the compact form instead of materializing a dict with
    one entry per touched cell.
    """
    fast = getattr(queue, "max_value", None)
    if fast is not None:
        return fast() if queue else default
    return max(queue.values(), default=default)


@dataclass(frozen=True)
class PhaseRecord:
    """Accounting for one shared-memory phase (QSM / s-QSM / GSM).

    Attributes
    ----------
    index:
        0-based phase number within the machine's history.
    reads_per_proc / writes_per_proc / ops_per_proc:
        Per-processor counts, keyed by processor id.  Processors that did
        nothing this phase are absent.
    read_queue / write_queue:
        Per-cell queue lengths, keyed by address: the number of *distinct
        processors* reading (resp. writing) the cell, which is Section
        2.1's definition of contention.  A processor that issues several
        requests to one cell contributes 1 here (its raw request count
        still shows up in ``reads_per_proc`` / ``writes_per_proc`` and
        therefore in ``m_rw``).
    """

    index: int
    reads_per_proc: Mapping[int, int]
    writes_per_proc: Mapping[int, int]
    ops_per_proc: Mapping[int, int]
    read_queue: Mapping[int, int]
    write_queue: Mapping[int, int]

    # The aggregates are computed on first use and kept on the instance
    # (a record is immutable), so the cost formula, the cost terms and
    # the dominance summaries all read one value per record.

    @cached_property
    def m_op(self) -> int:
        """Maximum local computation by any processor (``max_i c_i``)."""
        return max(self.ops_per_proc.values(), default=0)

    @cached_property
    def m_rw(self) -> int:
        """``max(1, max_i r_i, max_i w_i)`` as defined for QSM phases."""
        max_r = max(self.reads_per_proc.values(), default=0)
        max_w = max(self.writes_per_proc.values(), default=0)
        return max(1, max_r, max_w)

    @cached_property
    def kappa(self) -> int:
        """Maximum contention: the most distinct processors at any one cell.

        A phase with no reads or writes has contention 1 by definition
        (Section 2.1).
        """
        return max(1, queue_max(self.read_queue), queue_max(self.write_queue))

    @property
    def total_reads(self) -> int:
        return sum(self.reads_per_proc.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes_per_proc.values())

    @property
    def total_ops(self) -> int:
        return sum(self.ops_per_proc.values())

    @property
    def active_processors(self) -> int:
        """Number of processors that issued at least one operation."""
        active = set(self.reads_per_proc) | set(self.writes_per_proc) | set(self.ops_per_proc)
        return len(active)


@dataclass(frozen=True)
class SuperstepRecord:
    """Accounting for one BSP superstep.

    Attributes
    ----------
    index:
        0-based superstep number.
    work_per_proc:
        Local work ``w_i`` per component.
    sent_per_proc / received_per_proc:
        Message counts ``s_i`` and ``r_i`` per component.
    """

    index: int
    work_per_proc: Mapping[int, int]
    sent_per_proc: Mapping[int, int]
    received_per_proc: Mapping[int, int]

    @cached_property
    def w(self) -> int:
        """Maximum local work at any component."""
        return max(self.work_per_proc.values(), default=0)

    @cached_property
    def h(self) -> int:
        """The ``h``-relation routed: ``max_i max(s_i, r_i)``."""
        max_s = max(self.sent_per_proc.values(), default=0)
        max_r = max(self.received_per_proc.values(), default=0)
        return max(max_s, max_r)

    @property
    def total_messages(self) -> int:
        return sum(self.sent_per_proc.values())


def merge_counts(*mappings: Mapping[int, int]) -> Dict[int, int]:
    """Sum integer-valued mappings key-wise (helper for record construction).

    Keys keep their first-appearance order.  A mapping whose keys are all
    new — in particular the only non-empty one, the common phase that
    issues one kind of op — is copied at C speed instead of key by key.
    """
    out: Dict[int, int] = {}
    for mapping in mappings:
        if out.keys().isdisjoint(mapping):
            out.update(mapping)
            continue
        get = out.get
        for key, value in mapping.items():
            out[key] = get(key, 0) + value
    return out
