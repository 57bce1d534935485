"""Bulk-synchronous shared-memory machine base (QSM / s-QSM / GSM).

Algorithms drive a machine in orchestrator style: the algorithm code plays
every processor, issuing reads, writes and local-op charges through a
:class:`Phase` context manager.  The machine enforces the model's semantics:

* **Read latency** — a value read in phase *t* is only available after the
  phase commits (returned through a :class:`ReadHandle` that stays sealed
  until then), matching "the value returned by a shared-memory read can only
  be used in a subsequent phase".
* **No concurrent read+write** — a location may be read by many processors
  or written by many processors in one phase, but not both; violations raise
  :class:`MemoryConflictError`.
* **Queue accounting** — per-cell queue lengths count the number of
  *distinct processors* accessing the cell (Section 2.1's contention), and
  feed the contention term ``kappa`` of the cost formulas.  A processor
  issuing two reads of one cell contributes 1 to that cell's queue (but
  still 2 to its own ``m_rw`` request count).
* **Bulk operations** — every bulk op is semantically identical to the
  scalar loop it replaces but updates the counters with aggregate
  operations, so the per-operation Python overhead is paid once per call
  instead of once per cell (see ``benchmarks/bench_phase_engine``).  Two
  shapes are served:

  - *one processor, many cells* — :meth:`Phase.read_block`,
    :meth:`Phase.write_block` and :meth:`Phase.write_cols`;
  - *many processors, one cell each* (the shape of a PRAM step) — the
    columnar :meth:`Phase.read_each`, :meth:`Phase.write_each` and
    :meth:`Phase.local_each`.

  The loop is the specification, errors included: when any aggregate
  check fails, the call is replayed through the scalar loop on a cold
  path, so the same exception is raised at the same pair.
* **Counted columns** — a columnar read or write whose processors are all
  distinct, on cells new to the phase, has one queue per cell of exactly
  its count in the address column.  The phase keeps such a column and its
  ``Counter`` instead of per-cell reader sets and writer lists, and
  rebuilds those entries from the kept column only when something needs
  them (a later op on one of its cells, a winner policy, a trace, the GSM
  or PRAM write rules).  Writes are counted only when every value is one
  common ``int`` and the machine's commit lands them without entries
  (:meth:`SharedMemoryMachine._can_count_writes`).
* **Write resolution** — model-specific: the QSM/s-QSM pick one arbitrary
  winner per cell; the GSM's strong queuing merges all written values into
  the cell (see subclasses).

Costs are charged per phase by the subclass's cost formula and accumulated
in ``machine.time``; the full phase history is kept as
:class:`~repro.core.phase.PhaseRecord` objects for the round auditor and the
lower-bound engines.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import itemgetter
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.phase import PhaseRecord
from repro.obs import metrics as _metrics
from repro.util.seeding import derive_rng

__all__ = [
    "MemoryConflictError",
    "PhaseClosedError",
    "ReadHandle",
    "BlockReadHandle",
    "ReadEachHandle",
    "Phase",
    "SharedMemoryMachine",
    "Collided",
    "WriteEntry",
]


class Collided(list):
    """Pending writes of one cell with >= 2 writers: ``(proc, value)`` pairs
    in issue order.  A dedicated type so entry dispatch is an exact-type
    check that can never be confused with a user value that happens to be a
    list."""

    __slots__ = ()


# One cell's pending writes, discriminated by exact type:
#
# * ``Collided``         — two or more writes, as ``(proc, value)`` pairs in
#                          issue order;
# * ``tuple``            — exactly one write issued through the scalar path
#                          (or a block carrying tuple-like values), stored as
#                          ``(proc, value)``;
# * anything else        — exactly one write issued through the bulk path,
#                          stored as the bare value.  The writing processor
#                          is recorded once per block in
#                          ``Phase._block_origins`` and only looked up on
#                          the rare paths that need it (collision promotion,
#                          trace recording).  A counted column's cells also
#                          hold its bare common value, for any number of
#                          writers, until ``Phase._write_entries`` expands
#                          them.
#
# The bare-value form is what makes ``write_block`` allocation-free per
# cell; tuple-like values automatically take the explicit ``(proc, value)``
# form, so the discrimination is never ambiguous.
WriteEntry = Union[Any, Tuple[int, Any], Collided]


class MemoryConflictError(RuntimeError):
    """A location was both read and written in the same phase."""


class PhaseClosedError(RuntimeError):
    """An operation was issued against a phase that has already committed."""


class ReadHandle:
    """Deferred result of a shared-memory read.

    The handle is *sealed* while its phase is open; accessing ``.value``
    raises then.  After the phase commits the handle resolves to the value
    the cell held at the start of the phase.
    """

    __slots__ = ("proc", "addr", "_value", "_resolved")

    def __init__(self, proc: int, addr: int) -> None:
        self.proc = proc
        self.addr = addr
        self._value: Any = None
        self._resolved = False

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._resolved = True

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise PhaseClosedError(
                "read value used before its phase committed: the QSM/GSM read "
                "rule only makes values available in a subsequent phase"
            )
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = repr(self._value) if self._resolved else "<sealed>"
        return f"ReadHandle(proc={self.proc}, addr={self.addr}, value={state})"


# C-callable isinstance check: lets bulk paths scan a value tuple for
# handles via any(map(...)) without per-item bytecode.
_is_read_handle = ReadHandle.__instancecheck__


class BlockReadHandle:
    """Deferred result of a bulk shared-memory read (:meth:`Phase.read_block`).

    Sealed while its phase is open; after the phase commits ``.values`` is
    the list of values the cells held at the start of the phase, in the
    order the addresses were requested.
    """

    __slots__ = ("proc", "addrs", "_values", "_resolved")

    def __init__(self, proc: int, addrs: Tuple[int, ...]) -> None:
        self.proc = proc
        self.addrs = addrs
        self._values: Optional[List[Any]] = None
        self._resolved = False

    def _resolve(self, values: List[Any]) -> None:
        self._values = values
        self._resolved = True

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def values(self) -> List[Any]:
        if not self._resolved:
            raise PhaseClosedError(
                "block read values used before their phase committed: the "
                "QSM/GSM read rule only makes values available in a "
                "subsequent phase"
            )
        return list(self._values)

    def __len__(self) -> int:
        return len(self.addrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = repr(self._values) if self._resolved else "<sealed>"
        return f"BlockReadHandle(proc={self.proc}, addrs={self.addrs!r}, values={state})"


class ReadEachHandle(BlockReadHandle):
    """Deferred result of a columnar shared-memory read (:meth:`Phase.read_each`).

    Processor ``procs[i]`` read cell ``addrs[i]``; sealed while its phase
    is open, after the commit ``.values`` lists the cell values in request
    order.  ``.proc`` is ``None``: there is no single reading processor.
    """

    __slots__ = ("procs",)

    def __init__(self, procs: Sequence[int], addrs: Sequence[int]) -> None:
        super().__init__(None, addrs)
        self.procs = procs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = repr(self._values) if self._resolved else "<sealed>"
        return f"ReadEachHandle(n={len(self)}, values={state})"


class _ScalarReads:
    """A bulk read's handle over the scalar :class:`ReadHandle` s that its
    cold-path replay issued (see :meth:`Phase._replay_reads`).  Speaks the
    block protocol (``.proc``) and the columnar one (``.procs``)."""

    __slots__ = ("proc", "_handles")

    def __init__(self, handles: List[ReadHandle], proc: Optional[int] = None) -> None:
        self.proc = proc
        self._handles = handles

    @property
    def procs(self) -> Tuple[int, ...]:
        return tuple(h.proc for h in self._handles)

    @property
    def addrs(self) -> Tuple[int, ...]:
        return tuple(h.addr for h in self._handles)

    @property
    def resolved(self) -> bool:
        return all(h.resolved for h in self._handles)

    @property
    def values(self) -> List[Any]:
        return [h.value for h in self._handles]

    def __len__(self) -> int:
        return len(self._handles)


def _column(seq: Any) -> Sequence[Any]:
    """One column of a columnar op as an immutable sequence: tuples and
    ranges pass through, anything else is copied, so a caller reusing its
    list cannot change what a pending handle reads."""
    return seq if type(seq) is tuple or type(seq) is range else tuple(seq)


def _check_columns(op: str, *cols: Sequence[Any]) -> None:
    if len({len(c) for c in cols}) > 1:
        raise ValueError(
            f"{op} needs parallel columns of equal length, got lengths "
            f"{[len(c) for c in cols]}"
        )


_INT_ONLY = {int}
_BOOL_ONLY = {bool}


def _all_ids(ids: Sequence[Any], limit: Optional[int]) -> bool:
    """Whether every entry of the non-empty column ``ids`` is an ``int`` in
    ``[0, limit)`` (``limit=None``: unbounded) — the aggregate form of
    ``_check_proc`` / ``_check_addr`` (exact type, so ``bool`` fails)."""
    if type(ids) is range:  # ints by construction; bounds from the ends
        lo, hi = min(ids[0], ids[-1]), max(ids[0], ids[-1])
    elif set(map(type, ids)) <= _INT_ONLY:
        lo, hi = min(ids), max(ids)
    else:
        return False
    return lo >= 0 and (limit is None or hi < limit)


def _tally(procs: Sequence[int]) -> Dict[int, int]:
    """``Counter(procs)`` (first-appearance order); a range of processors,
    one request each, needs no counting."""
    return dict.fromkeys(procs, 1) if type(procs) is range else Counter(procs)


def _common_int(values: Sequence[Any]) -> bool:
    """Whether the non-empty ``values`` are one value, exactly: all of type
    ``int`` (or all ``bool``) and equal.  Floats never pass (``0.0 ==
    -0.0``, NaN), nor ``1`` beside ``True``: whichever writer wins must
    store an indistinguishable value."""
    kinds = set(map(type, values))
    return (kinds == _INT_ONLY or kinds == _BOOL_ONLY) and min(values) == max(values)


def _touches(counted: List[Tuple[Any, ...]], addrs: Sequence[int]) -> bool:
    """Whether ``addrs`` meets a cell of one of the ``counted`` columns
    (each column's ``Counter`` is its last element)."""
    return any(not col[-1].keys().isdisjoint(addrs) for col in counted)


def _merge_tally(counts: Dict[int, int], tally: Dict[int, int]) -> None:
    """Add ``tally`` into ``counts``, inserting new keys in ``tally``'s
    order — first appearance, exactly as the scalar loop inserts them."""
    if counts.keys().isdisjoint(tally):
        counts.update(tally)
    else:
        get = counts.get
        for proc, n in tally.items():
            counts[proc] = get(proc, 0) + n


def _unwrap_values(values: Sequence[Any]) -> Optional[Sequence[Any]]:
    """``values`` with resolved :class:`ReadHandle` s unwrapped, as the
    scalar write unwraps them, or ``None`` when one is still sealed (the
    scalar loop then raises at it)."""
    if not any(map(_is_read_handle, values)):
        return values
    out: List[Any] = []
    for value in values:
        if isinstance(value, ReadHandle):
            if not value.resolved:
                return None
            value = value.value
        out.append(value)
    return out


# Value types that cannot be stored in the bare-entry form: exact tuples and
# Collided would be indistinguishable from the bookkeeping forms, and handles
# need the unwrap/seal check.  (Exact types only — a namedtuple value lands
# bare and dispatches as bare, consistently.)
_NON_PLAIN_TYPES = (tuple, Collided, ReadHandle, BlockReadHandle)

# (proc, value) -> value / proc, at C speed, for bulk commit of tuple entries.
_value_of = itemgetter(1)
_proc_of = itemgetter(0)


class Phase:
    """One open phase of a shared-memory machine.

    Use via ``with machine.phase() as ph:``; operations are recorded and the
    phase commits (applying writes, resolving reads, charging cost) when the
    context exits without an exception.
    """

    def __init__(self, machine: "SharedMemoryMachine") -> None:
        self._machine = machine
        self._open = True
        # Scalar ReadHandles and BlockReadHandles, in issue order.
        self._reads: List[Any] = []
        # addr -> pending writes (see WriteEntry for the three entry kinds).
        self._writes: Dict[int, WriteEntry] = {}
        # (proc, addrs) per bulk block that landed bare values; consulted by
        # _first_writer() on the rare paths that need a bare entry's writer.
        self._block_origins: List[Tuple[int, Sequence[int]]] = []
        # Entry-kind summary flags; while _write_collision is False, commit
        # and record building take C-level bulk paths, and the other two
        # pick the right bulk resolver.
        self._write_collision = False  # any Collided entry
        self._has_plain = False  # any bare-value entry (bulk path)
        self._has_pairs = False  # any (proc, value) entry (scalar path)
        # Interval hull of all written addresses this phase.  A block whose
        # addresses lie wholly outside [lo, hi] cannot revisit a cell, so
        # the bulk write path skips the per-address disjointness probe; the
        # hull also gives the commit its high-water mark without a max()
        # over all keys.
        self._write_lo: Any = float("inf")
        self._write_hi: int = -1
        # addr -> its distinct reading processors (Section 2.1 contention):
        # the one reader's id, upgraded to a set of ids by a second distinct
        # reader.  _read_shared is True once any cell holds a set; until
        # then every read queue has length one.
        self._readers: Dict[int, Union[int, set]] = {}
        self._read_shared = False
        # Counted columns, issue order: (procs, addrs, counts) per read
        # column and (procs, addrs, value, counts) per write column.  Their
        # cells' _readers entries hold placeholders and their _writes
        # entries the bare common value, until _expand_reads /
        # _write_entries rebuilds the per-cell entries from the columns.
        self._counted_reads: List[Tuple[Any, ...]] = []
        self._counted_writes: List[Tuple[Any, ...]] = []
        self._reads_per_proc: Dict[int, int] = {}
        self._writes_per_proc: Dict[int, int] = {}
        self._ops_per_proc: Dict[int, int] = {}

    # -- operations -------------------------------------------------------

    def read(self, proc: int, addr: int) -> ReadHandle:
        """Processor ``proc`` requests the contents of cell ``addr``.

        Returns a sealed :class:`ReadHandle`; the value is available after
        the phase commits.
        """
        self._check_open()
        self._machine._check_proc(proc)
        self._machine._check_addr(addr)
        if addr in self._writes:
            raise MemoryConflictError(
                f"cell {addr} is being written this phase; concurrent read and "
                f"write to one location in a phase is forbidden"
            )
        handle = ReadHandle(proc, addr)
        self._reads.append(handle)
        cell = self._readers.get(addr)
        if cell is not None and self._counted_reads and _touches(
            self._counted_reads, (addr,)
        ):
            self._expand_reads()
            cell = self._readers[addr]
        if cell is None:
            self._readers[addr] = proc
        elif type(cell) is set:
            cell.add(proc)
        elif cell != proc:
            self._readers[addr] = {cell, proc}
            self._read_shared = True
        self._reads_per_proc[proc] = self._reads_per_proc.get(proc, 0) + 1
        return handle

    def read_block(self, proc: int, addrs: Sequence[int]) -> BlockReadHandle:
        """Processor ``proc`` requests the contents of all cells in ``addrs``.

        Semantically identical to ``[ph.read(proc, a) for a in addrs]`` but
        the per-processor and per-cell counters are updated with aggregate
        operations, so large blocks avoid the per-operation bookkeeping that
        dominates scalar reads.  Returns a sealed :class:`BlockReadHandle`
        whose ``.values`` resolves to the list of cell values (request
        order) after the phase commits.  Duplicate addresses are allowed
        and count once toward each cell's contention (the processor set),
        but each request counts toward ``m_rw``.
        """
        self._check_open()
        self._machine._check_proc(proc)
        addr_tuple = tuple(addrs)
        handle = BlockReadHandle(proc, addr_tuple)
        if not addr_tuple:
            handle._resolve([])
            return handle
        writes = self._writes
        if not _all_ids(addr_tuple, self._machine.memory_size) or (
            writes and not writes.keys().isdisjoint(addr_tuple)
        ):
            return self._replay_reads(repeat(proc), addr_tuple, proc)
        readers = self._readers
        if not readers or readers.keys().isdisjoint(addr_tuple):
            # Every cell new to the phase: one C-level pass (a repeated
            # address is the same reader again).
            readers.update(zip(addr_tuple, repeat(proc)))
        else:
            self._add_readers(repeat(proc), addr_tuple)
        self._reads_per_proc[proc] = (
            self._reads_per_proc.get(proc, 0) + len(addr_tuple)
        )
        self._reads.append(handle)
        return handle

    def read_each(self, procs: Sequence[int], addrs: Sequence[int]) -> ReadEachHandle:
        """Processor ``procs[i]`` requests the contents of cell ``addrs[i]``.

        Columnar form of ``[ph.read(p, a) for p, a in zip(procs, addrs)]``
        — the PRAM-step shape, many processors with one cell each — with
        the per-pair bookkeeping done in aggregate.  Returns one sealed
        :class:`ReadEachHandle` whose ``.values`` resolves to the cell
        values in request order after the phase commits.  Processors and
        addresses may repeat: each cell's contention counts its distinct
        processors, each request counts toward its processor's ``m_rw``.
        The columns must have equal length.
        """
        self._check_open()
        procs = _column(procs)
        addrs = _column(addrs)
        _check_columns("read_each", procs, addrs)
        handle = ReadEachHandle(procs, addrs)
        if not addrs:
            handle._resolve([])
            return handle
        machine = self._machine
        writes = self._writes
        if not (
            _all_ids(procs, machine.num_processors)
            and _all_ids(addrs, machine.memory_size)
        ) or (writes and not writes.keys().isdisjoint(addrs)):
            return self._replay_reads(procs, addrs)
        readers = self._readers
        tally = _tally(procs)
        if readers and not readers.keys().isdisjoint(addrs):
            self._add_readers(procs, addrs)
        elif type(addrs) is range or len(set(addrs)) == len(addrs):
            # Distinct cells, all new to the phase: one C-level pass.
            readers.update(zip(addrs, procs))
        elif len(tally) == len(procs):
            # Distinct processors on cells new to the phase: a cell's
            # queue is its count in the column (a counted column).
            counts = Counter(addrs)
            readers.update(counts)
            self._counted_reads.append((procs, addrs, counts))
        else:
            self._add_readers(procs, addrs)
        _merge_tally(self._reads_per_proc, tally)
        self._reads.append(handle)
        return handle

    def _add_readers(self, procs: Any, addrs: Sequence[int]) -> None:
        """Per-pair reader insertion (the path for cells read before);
        ``procs`` is a column, or ``repeat(proc)`` for a block."""
        if self._counted_reads and _touches(self._counted_reads, addrs):
            self._expand_reads()
        readers = self._readers
        get = readers.get
        shared = self._read_shared
        for p, a in zip(procs, addrs):
            cell = get(a)
            if cell is None:
                readers[a] = p
            elif type(cell) is set:
                cell.add(p)
            elif cell != p:
                readers[a] = {cell, p}
                shared = True
        self._read_shared = shared

    def _expand_reads(self) -> None:
        """Rebuild the counted read columns' per-cell reader entries, as
        :meth:`_add_readers` would have built them at issue time: their
        cells are blanked in place, which keeps the dict's key order."""
        counted, self._counted_reads = self._counted_reads, []
        for procs, addrs, counts in counted:
            self._readers.update(dict.fromkeys(counts))
            self._add_readers(procs, addrs)

    def _replay_reads(
        self, procs: Any, addrs: Sequence[int], proc: Optional[int] = None
    ) -> "_ScalarReads":
        """Cold path of the bulk reads: the scalar loop they stand for.

        It raises the loop's own exception at the loop's first bad pair
        (after issuing the pairs before it, as the loop would); should
        every pair pass, the scalar handles come back as one bulk handle.
        """
        return _ScalarReads([self.read(p, a) for p, a in zip(procs, addrs)], proc)

    def write(self, proc: int, addr: int, value: Any) -> None:
        """Processor ``proc`` writes ``value`` to cell ``addr``.

        ``value`` must be a concrete value computed from state available
        before this phase.  Passing a sealed :class:`ReadHandle` from the
        current phase raises; resolved handles from earlier phases are
        unwrapped for convenience.
        """
        self._check_open()
        self._machine._check_proc(proc)
        self._machine._check_addr(addr)
        if isinstance(value, ReadHandle):
            if not value.resolved:
                raise PhaseClosedError(
                    "attempted to write a value read in the same phase; reads "
                    "only deliver in a subsequent phase"
                )
            value = value.value
        if addr in self._readers:
            raise MemoryConflictError(
                f"cell {addr} is being read this phase; concurrent read and "
                f"write to one location in a phase is forbidden"
            )
        writes = self._writes
        entry = writes.get(addr)
        if entry is not None and self._counted_writes and _touches(
            self._counted_writes, (addr,)
        ):
            entry = self._write_entries()[addr]
        if entry is None:
            writes[addr] = (proc, value)
        elif type(entry) is Collided:
            entry.append((proc, value))
        else:
            first = entry if type(entry) is tuple else (
                self._first_writer(addr), entry
            )
            writes[addr] = Collided((first, (proc, value)))
            self._write_collision = True
        self._has_pairs = True
        if addr > self._write_hi:
            self._write_hi = addr
        if addr < self._write_lo:
            self._write_lo = addr
        self._writes_per_proc[proc] = self._writes_per_proc.get(proc, 0) + 1

    def write_block(self, proc: int, items: Sequence[Tuple[int, Any]]) -> None:
        """Processor ``proc`` writes every ``(addr, value)`` pair in ``items``.

        Semantically identical to ``for a, v in items: ph.write(proc, a, v)``
        (including on error: a bad pair aborts the phase at that pair, just
        as the scalar loop would) but the per-pair bookkeeping is a single
        aggregate pass.  Values follow the scalar rule: sealed same-phase
        :class:`ReadHandle` values raise, resolved handles from earlier
        phases are unwrapped.
        """
        self._check_open()
        self._machine._check_proc(proc)
        pairs = items if type(items) is list else list(items)
        if not pairs:
            return
        # Aggregate validation at C speed.  strict=True makes mixed-arity
        # rows raise instead of silently truncating to the shortest row.
        try:
            addrs, values = zip(*pairs, strict=True)
        except (TypeError, ValueError):
            addrs = values = ()
        # Values whose exact type is tuple-like or a handle cannot use the
        # bare-value entry form (see WriteEntry); everything else can.
        plain = set(map(type, values)).isdisjoint(_NON_PLAIN_TYPES)
        if not plain:
            values = _unwrap_values(values)
        readers = self._readers
        if (
            len(addrs) != len(pairs)
            or values is None
            or not _all_ids(addrs, self._machine.memory_size)
            or (readers and not readers.keys().isdisjoint(addrs))
        ):
            # Malformed rows, a sealed value, a bad address or a conflict:
            # the scalar loop raises its own error at its first bad pair.
            for addr, value in pairs:
                self.write(proc, addr, value)
            return
        lo = min(addrs)
        hi = max(addrs)
        writes = self._writes
        if plain and (
            not writes
            or lo > self._write_hi
            or hi < self._write_lo
            or writes.keys().isdisjoint(addrs)
        ):
            # Outside the interval hull of earlier writes (or provably
            # disjoint from them): land the whole block as bare-value
            # entries in one C-level pass — no per-cell allocation at all.
            # Duplicates *within* the block would clobber each other in the
            # bulk update, so detect them from the key-count delta and redo
            # the block through the per-item path (all its keys are new, so
            # the rollback is exact).
            before = len(writes)
            writes.update(zip(addrs, values))
            if len(writes) - before != len(addrs):
                for a in addrs:
                    writes.pop(a, None)
                self._insert_writes(repeat(proc), addrs, values)
            else:
                self._has_plain = True
                self._block_origins.append((proc, addrs))
        else:
            self._insert_writes(repeat(proc), addrs, values)
        if hi > self._write_hi:
            self._write_hi = hi
        if lo < self._write_lo:
            self._write_lo = lo
        self._writes_per_proc[proc] = (
            self._writes_per_proc.get(proc, 0) + len(addrs)
        )

    def write_cols(self, proc: int, addrs: Sequence[int], values: Sequence[Any]) -> None:
        """Processor ``proc`` writes parallel columns: ``values[i]`` into
        ``addrs[i]``.

        Column form of :meth:`write_block` — semantically identical to
        ``ph.write_block(proc, list(zip(addrs, values)))`` but without
        building the pair list.  The columns must have equal length.
        """
        self._check_open()
        self._machine._check_proc(proc)
        if len(addrs) != len(values):
            raise ValueError(
                f"write_cols needs parallel columns of equal length, got "
                f"{len(addrs)} addresses and {len(values)} values"
            )
        self.write_block(proc, list(zip(addrs, values)))

    def write_each(
        self, procs: Sequence[int], addrs: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Processor ``procs[i]`` writes ``values[i]`` to cell ``addrs[i]``.

        Columnar form of ``for p, a, v in zip(procs, addrs, values):
        ph.write(p, a, v)``: the same pending-write entries in the same
        insertion order (so collisions resolve through the same winner
        draws), the same per-processor counts, the same first error at the
        same pair — with the per-pair bookkeeping done in aggregate.
        Values follow the scalar rule (sealed same-phase handles raise,
        resolved ones are unwrapped).  The columns must have equal length.
        """
        self._check_open()
        procs = _column(procs)
        addrs = _column(addrs)
        values = _column(values)
        _check_columns("write_each", procs, addrs, values)
        if not addrs:
            return
        machine = self._machine
        readers = self._readers
        vals = _unwrap_values(values)
        if (
            vals is None
            or not _all_ids(procs, machine.num_processors)
            or not _all_ids(addrs, machine.memory_size)
            or (readers and not readers.keys().isdisjoint(addrs))
        ):
            self._replay_writes(procs, addrs, values)
            return
        lo = min(addrs)
        hi = max(addrs)
        writes = self._writes
        tally = _tally(procs)
        new_cells = (
            not writes
            or lo > self._write_hi
            or hi < self._write_lo
            or writes.keys().isdisjoint(addrs)
        )
        if not new_cells:
            self._insert_writes(procs, addrs, vals)
        elif type(addrs) is range or len(set(addrs)) == len(addrs):
            # Distinct cells, all new to the phase: one C-level pass of
            # (proc, value) entries.
            writes.update(zip(addrs, zip(procs, vals)))
            self._has_pairs = True
        elif (
            len(tally) == len(procs)
            and machine._can_count_writes()
            and _common_int(vals)
        ):
            # Distinct processors storing one common value on cells new to
            # the phase (a counted column): each cell's queue is its count
            # in the column, and it lands as the bare value.
            counts = Counter(addrs)
            writes.update(dict.fromkeys(counts, vals[0]))
            self._counted_writes.append((procs, addrs, vals[0], counts))
            self._has_plain = True
        else:
            self._insert_writes(procs, addrs, vals)
        if hi > self._write_hi:
            self._write_hi = hi
        if lo < self._write_lo:
            self._write_lo = lo
        _merge_tally(self._writes_per_proc, tally)

    def _replay_writes(
        self, procs: Any, addrs: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Cold path of the bulk writes: the scalar loop they stand for,
        raising its own error at its first bad pair."""
        for p, a, v in zip(procs, addrs, values):
            self.write(p, a, v)

    def _insert_writes(self, procs: Any, addrs: Sequence[int], values: Sequence[Any]) -> None:
        """Per-item write insertion (the path that handles colliding cells);
        ``procs`` is a column, or ``repeat(proc)`` for a block."""
        if self._counted_writes and _touches(self._counted_writes, addrs):
            self._write_entries()
        writes = self._writes
        writes_get = writes.get
        collision = self._write_collision
        for proc, addr, value in zip(procs, addrs, values):
            entry = writes_get(addr)
            if entry is None:
                writes[addr] = (proc, value)
            elif type(entry) is Collided:
                entry.append((proc, value))
            else:
                first = entry if type(entry) is tuple else (
                    self._first_writer(addr), entry
                )
                writes[addr] = Collided((first, (proc, value)))
                collision = True
        self._write_collision = collision
        self._has_pairs = True

    def _write_entries(self) -> Dict[int, WriteEntry]:
        """The pending write entries per cell (see :data:`WriteEntry`),
        for whatever resolves writes from them: a winner policy, a trace,
        the GSM and PRAM write rules.  Counted columns are expanded first,
        into the entries :meth:`_insert_writes` would have built at issue
        time; their cells are blanked in place, which keeps the dict's key
        order."""
        counted = self._counted_writes
        if counted:
            self._counted_writes = []
            for procs, addrs, value, counts in counted:
                self._writes.update(dict.fromkeys(counts))
                self._insert_writes(procs, addrs, repeat(value))
        return self._writes

    def _first_writer(self, addr: int) -> int:
        """Writer of a bare-value entry, from the per-block origin records."""
        for proc, addrs in reversed(self._block_origins):
            if addr in addrs:
                return proc
        raise AssertionError(f"no origin recorded for bare write to cell {addr}")

    def local(self, proc: int, ops: int = 1) -> None:
        """Charge ``ops`` units of local RAM computation to processor ``proc``."""
        self._check_open()
        self._machine._check_proc(proc)
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        self._ops_per_proc[proc] = self._ops_per_proc.get(proc, 0) + ops

    def local_each(self, procs: Sequence[int], ops: Union[int, Sequence[int]]) -> None:
        """Charge ``ops[i]`` units of local computation to ``procs[i]``.

        Columnar form of ``for p, o in zip(procs, ops): ph.local(p, o)``;
        a single int ``ops`` charges that many units to every processor.
        """
        self._check_open()
        procs = _column(procs)
        ops = [ops] * len(procs) if type(ops) is int else _column(ops)
        _check_columns("local_each", procs, ops)
        if not procs:
            return
        try:
            valid = _all_ids(procs, self._machine.num_processors) and min(ops) >= 0
        except TypeError:  # uncomparable charges; the loop names the pair
            valid = False
        if not valid:
            for p, o in zip(procs, ops):
                self.local(p, o)
            return
        counts = self._ops_per_proc
        get = counts.get
        for p, o in zip(procs, ops):
            counts[p] = get(p, 0) + o

    # -- commit machinery --------------------------------------------------

    def _check_open(self) -> None:
        if not self._open:
            raise PhaseClosedError("phase already committed")

    def _scalar_read_queue(self) -> Dict[int, int]:
        # Contention counts *distinct processors* per cell (Section 2.1):
        # duplicate requests by one processor count once toward kappa (they
        # still count per-request toward the processor's m_rw).  While no
        # cell has a second reader, every queue has length one and the dict
        # builds in a single C-level pass.  A counted column's cells take
        # their counts (their keys are already in place, so the order holds).
        readers = self._readers
        if not self._read_shared:
            queue = dict.fromkeys(readers, 1)
        else:
            queue = {
                addr: len(procs) if type(procs) is set else 1
                for addr, procs in readers.items()
            }
        for *_, counts in self._counted_reads:
            queue.update(counts)
        return queue

    def _dict_write_queue(self) -> Dict[int, int]:
        writes = self._writes
        if not self._write_collision:
            queue = dict.fromkeys(writes, 1)
        else:
            queue = {
                addr: len(set(map(_proc_of, entry))) if type(entry) is Collided else 1
                for addr, entry in writes.items()
            }
        for *_, counts in self._counted_writes:
            queue.update(counts)
        return queue

    def _build_record(self, index: int) -> PhaseRecord:
        read_queue = self._scalar_read_queue()
        write_queue = self._dict_write_queue()
        # The record takes the per-processor dicts over: a committed phase
        # never touches them again.
        return PhaseRecord(
            index=index,
            reads_per_proc=self._reads_per_proc,
            writes_per_proc=self._writes_per_proc,
            ops_per_proc=self._ops_per_proc,
            read_queue=read_queue,
            write_queue=write_queue,
        )

    def _resolve_reads(self, machine: "SharedMemoryMachine") -> None:
        """Resolve every read handle against pre-phase memory."""
        read_cell = machine._read_cell
        if type(machine)._read_cell is SharedMemoryMachine._read_cell:
            read_cell = machine._memory.get  # the same lookup, minus a call
        for handle in self._reads:
            if type(handle) is ReadHandle:
                handle._resolve(read_cell(handle.addr))
            else:  # BlockReadHandle / ReadEachHandle
                handle._resolve(list(map(read_cell, handle.addrs)))

    def __enter__(self) -> "Phase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self._machine._commit(self)
        finally:
            # Whether the phase aborted or the commit itself raised (e.g. a
            # PRAM concurrency violation), release the machine so callers
            # can continue after asserting on the error.
            self._machine._phase_open = False
            self._open = False
        return False


class SharedMemoryMachine:
    """Base class for the QSM, s-QSM and GSM simulators.

    Parameters
    ----------
    num_processors:
        Upper bound on processor ids, or ``None`` for the paper's
        "unlimited number of processors" setting.
    memory_size:
        Upper bound on addresses, or ``None`` for unbounded memory.
    seed:
        Seed for the machine's internal generator.  The QSM/s-QSM use it to
        pick the "arbitrary" winner among concurrent writers, so a seed pins
        an entire execution.
    winner_policy:
        How "arbitrary"-winner write collisions resolve: ``None`` (the
        machine's own seeded generator — the historical behaviour), a name
        (``"seeded"``/``"first"``/``"last"``) or a
        :class:`~repro.faults.winners.WinnerPolicy` instance.  The paper's
        semantics make *any* resolution legal, so a correct algorithm's
        output must not depend on this choice;
        :mod:`repro.faults.adversary` searches for violations.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Scheduled
        ``corrupt`` faults fire after the matching phase commits; every
        firing is appended to ``machine.fault_events`` (and to the phase's
        cost record when ``record_costs=True``).
    record_trace:
        When true, the machine additionally stores per-phase read/write
        address detail (see :mod:`repro.core.trace`) for the lower-bound
        engines.  Off by default because it is memory-heavy on large runs.
    record_costs:
        When true, every committed phase also appends a
        :class:`~repro.obs.records.PhaseCostRecord` (per-term charge
        values, the dominant term, contention histogram, per-processor op
        counts, wall time) to ``machine.cost_records``.  Zero-cost when
        off: the operation-issue paths are untouched and the commit pays
        a single predicate test.
    """

    #: Model tag used in cost records / result tables; subclasses override.
    model_label = "shared-memory"

    #: Whether collisions keep one arbitrary writer through
    #: :meth:`_apply_arbitrary_writes` (QSM, s-QSM, QSM(g,d), PEM, and the
    #: PRAM's arbitrary rule).
    _arbitrary_write_rule = False

    def __init__(
        self,
        num_processors: Optional[int] = None,
        memory_size: Optional[int] = None,
        seed: Optional[int] = 0,
        record_trace: bool = False,
        record_snapshots: bool = False,
        record_costs: bool = False,
        winner_policy: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if num_processors is not None:
            if type(num_processors) is not int:
                raise ValueError(
                    f"num_processors must be an int >= 1 or None, got {num_processors!r}"
                )
            if num_processors < 1:
                raise ValueError(f"num_processors must be >= 1, got {num_processors}")
        if memory_size is not None:
            if type(memory_size) is not int:
                raise ValueError(
                    f"memory_size must be an int >= 1 or None, got {memory_size!r}"
                )
            if memory_size < 1:
                raise ValueError(f"memory_size must be >= 1, got {memory_size}")
        self.num_processors = num_processors
        self.memory_size = memory_size
        self._memory: Dict[int, Any] = {}
        # Highest address ever written (-1 when untouched); kept current by
        # poke() and _commit() so next_free_address() is O(1) instead of
        # max() over the whole memory footprint.
        self._high_water: int = -1
        self._rng = derive_rng(seed)
        if winner_policy is not None:
            from repro.faults.winners import make_winner_policy

            winner_policy = make_winner_policy(winner_policy, seed=seed)
        self.winner_policy = winner_policy
        self.fault_plan = fault_plan
        self.fault_events: List[Any] = []
        if fault_plan is not None:
            fault_plan.attach(self)
        self.record_trace = record_trace
        self.record_snapshots = record_snapshots
        self.record_costs = record_costs
        self.history: List[PhaseRecord] = []
        self.phase_costs: List[float] = []
        self.traces: List["PhaseTrace"] = []
        self.snapshots: List[Dict[int, Any]] = []
        self.cost_records: List["PhaseCostRecord"] = []
        self.time: float = 0.0
        self._phase_open = False

    # -- subclass hooks ----------------------------------------------------

    def _phase_cost(self, record: PhaseRecord) -> float:
        raise NotImplementedError

    def _cost_terms(self, record: PhaseRecord) -> Dict[str, float]:
        """Evaluated terms of this model's phase-cost ``max()``.

        Returned in the model's canonical order (see the ``*_cost_terms``
        functions in :mod:`repro.core.cost`); the first argmax is the
        phase's dominant term.  Invariant: ``max(terms.values())`` equals
        :meth:`_phase_cost` of the same record.
        """
        raise NotImplementedError

    def _resolve_writes(self, phase: Phase) -> None:
        """Apply ``phase._writes`` to memory (model-specific).

        Entries come in the three :data:`WriteEntry` kinds; the phase's
        ``_write_collision`` / ``_has_plain`` / ``_has_pairs`` flags tell a
        resolver which kinds are present so it can pick a bulk path —
        :meth:`_apply_single_writes` implements the common last-value case.
        """
        raise NotImplementedError

    def _pick_winners(self, cells: List[Tuple[int, "Collided"]]) -> Iterator[int]:
        """Indices of the surviving writes of the collided ``cells``, as
        ``(addr, entries)`` pairs in the write dict's first-write order.

        Without a :attr:`winner_policy` every winner comes from one draw of
        the machine's own seeded generator over all the cells' writer
        counts — the same numbers, leaving the generator in the same state,
        as one scalar ``integers(0, k)`` per cell in that order.  An
        installed policy decides cell by cell, as the caller consumes the
        iterator.
        """
        policy = self.winner_policy
        if policy is None:
            return iter(self._rng.integers(0, [len(e) for _, e in cells]).tolist())
        return (self._policy_choice(policy, addr, entries) for addr, entries in cells)

    def _can_count_writes(self) -> bool:
        """Whether a phase may keep a common-value write column counted
        (:meth:`Phase.write_each`): only where the commit lands it without
        per-cell entries — the arbitrary-winner rule, with no winner policy
        (it chooses from the entries) and no trace (it records them)."""
        return (
            self._arbitrary_write_rule
            and self.winner_policy is None
            and not self.record_trace
        )

    def _policy_choice(self, policy: Any, addr: int, entries: "Collided") -> int:
        choice = policy.choose(addr, entries, len(self.history))
        if not 0 <= choice < len(entries):
            raise ValueError(
                f"winner policy {policy!r} chose index {choice} among "
                f"{len(entries)} writers of cell {addr}"
            )
        return choice

    def _apply_single_writes(self, phase: Phase) -> None:
        """Apply a collision-free phase's writes: each cell gets its one value.

        Covers the write rule of every model whose single-writer semantics is
        "store the value" (QSM, s-QSM, PRAM); only calls with
        ``phase._write_collision`` false are valid.
        """
        writes = phase._writes
        memory = self._memory
        if not phase._has_pairs:
            # Every entry is a bare value from the bulk path.
            memory.update(writes)
        elif not phase._has_plain:
            # Every entry is a (proc, value) tuple from the scalar path.
            memory.update(zip(writes.keys(), map(_value_of, writes.values())))
        else:
            for addr, entry in writes.items():
                memory[addr] = entry[1] if type(entry) is tuple else entry

    def _apply_arbitrary_writes(self, phase: Phase) -> None:
        """Apply a phase's writes under the arbitrary-winner rule (QSM,
        s-QSM, PEM, arbitrary-CRCW PRAM): a collided cell keeps the value
        :meth:`_pick_winners` chooses for it, in the write dict's
        first-write (issue) order; the memory takes all cells in one bulk
        update.

        When the only collisions are counted common-value columns (the
        Common-CRCW case), the winners are still drawn — with
        :meth:`_pick_winners`' one call over the cells' counts, so the
        generator's state is the same — and every cell lands through the
        single-writer path, since each winner stores the same value.
        Entry collisions or a winner policy expand the columns first."""
        counted = phase._counted_writes
        if counted and (phase._write_collision or self.winner_policy is not None):
            phase._write_entries()
        elif counted:
            # Every counted column has a repeated cell, so the draw is
            # never empty; first-write order is column order, then count
            # order (first appearance) within a column.
            self._rng.integers(
                0, [k for *_, counts in counted for k in counts.values() if k > 1]
            )
            self._apply_single_writes(phase)
            return
        if not phase._write_collision:
            self._apply_single_writes(phase)
            return
        writes = phase._writes
        winners = self._pick_winners(
            [(addr, entry) for addr, entry in writes.items() if type(entry) is Collided]
        )
        self._memory.update(
            (
                addr,
                entry[next(winners)][1] if type(entry) is Collided
                else entry[1] if type(entry) is tuple
                else entry,
            )
            for addr, entry in writes.items()
        )

    # -- public API ---------------------------------------------------------

    def phase(self) -> Phase:
        """Open a new phase.  Phases may not be nested."""
        if self._phase_open:
            raise PhaseClosedError("a phase is already open; phases cannot nest")
        self._phase_open = True
        phase = Phase(self)
        if self.record_costs:
            phase._t_open = perf_counter()
        return phase

    def peek(self, addr: int) -> Any:
        """Read committed memory without charging cost (test/verifier use only)."""
        self._check_addr(addr)
        return self._memory.get(addr)

    def poke(self, addr: int, value: Any) -> None:
        """Set committed memory without charging cost (input loading)."""
        self._check_addr(addr)
        self._memory[addr] = value
        if addr > self._high_water:
            self._high_water = addr

    def load(self, values: Sequence[Any], base: int = 0) -> None:
        """Place ``values`` into consecutive cells starting at ``base`` for free.

        Input placement is not charged in any of the models; the input is
        assumed to reside in shared memory (or be distributed, on the BSP)
        at time zero.
        """
        if (
            values
            and type(base) is int
            and base >= 0
            and type(self).poke is SharedMemoryMachine.poke  # GSM wraps values
        ):
            span = range(base, base + len(values))
            if self.memory_size is None or span[-1] < self.memory_size:
                scatter = getattr(self._memory, "scatter", None)
                if scatter is not None:
                    scatter(span, list(values))
                else:
                    self._memory.update(zip(span, values))
                if span[-1] > self._high_water:
                    self._high_water = span[-1]
                return
        for offset, value in enumerate(values):
            self.poke(base + offset, value)

    @property
    def phase_count(self) -> int:
        return len(self.history)

    @property
    def memory_in_use(self) -> int:
        """Number of distinct cells ever written (footprint measure)."""
        return len(self._memory)

    def next_free_address(self) -> int:
        """One past the highest address ever written.

        Algorithms that lay out scratch arrays start their allocators here
        so that several algorithm invocations can share one machine without
        address collisions.  O(1): reads the high-water mark maintained by
        ``poke`` and phase commits (memory cells are never deleted, so the
        mark always equals ``max(self._memory)``).
        """
        return self._high_water + 1

    # -- internals -----------------------------------------------------------

    def _check_proc(self, proc: int) -> None:
        # Hot path: one exact-type test covers the common case (profiling
        # showed per-operation validation dominating large sweeps; `type is
        # int` also rejects bool, unlike isinstance).
        if type(proc) is not int:
            raise TypeError(f"processor id must be an int, got {proc!r}")
        if proc < 0:
            raise ValueError(f"processor id must be non-negative, got {proc}")
        if self.num_processors is not None and proc >= self.num_processors:
            raise ValueError(
                f"processor id {proc} out of range for machine with "
                f"{self.num_processors} processors"
            )

    def _check_addr(self, addr: int) -> None:
        if type(addr) is not int:
            raise TypeError(f"address must be an int, got {addr!r}")
        if addr < 0:
            raise ValueError(f"address must be non-negative, got {addr}")
        if self.memory_size is not None and addr >= self.memory_size:
            raise ValueError(
                f"address {addr} out of range for memory of size {self.memory_size}"
            )

    def _commit(self, phase: Phase) -> None:
        record = phase._build_record(len(self.history))
        cost = self._phase_cost(record)
        # Resolve reads against pre-phase memory, then apply writes.
        phase._resolve_reads(self)
        self._resolve_writes(phase)
        # The phase's interval hull tracks its exact max written address.
        if phase._write_hi > self._high_water:
            self._high_water = phase._write_hi
        phase_faults: Tuple[Dict[str, Any], ...] = ()
        if self.fault_plan is not None:
            fired = self.fault_plan.fire_memory(record.index, self)
            if fired:
                self.fault_events.extend(fired)
                phase_faults = tuple(ev.to_dict() for ev in fired)
        self.history.append(record)
        self.phase_costs.append(cost)
        self.time += cost
        if _metrics.REGISTRY.enabled:
            _metrics.record_phase(self.model_label, record, cost, len(phase_faults))
        if self.record_trace:
            from repro.core.trace import PhaseTrace

            self.traces.append(PhaseTrace.from_phase(record.index, phase))
        if self.record_snapshots:
            self.snapshots.append(dict(self._memory))
        if self.record_costs:
            from repro.obs.records import build_phase_cost_record

            self.cost_records.append(
                build_phase_cost_record(
                    record.index,
                    self.model_label,
                    self._cost_terms(record),
                    cost,
                    record,
                    wall_time=perf_counter() - getattr(phase, "_t_open", perf_counter()),
                    faults=phase_faults,
                )
            )
        self._phase_open = False

    def _read_cell(self, addr: int) -> Any:
        """Value delivered by a read of ``addr`` (subclasses may override)."""
        return self._memory.get(addr)
