"""The numpy-backed vector phase engine (``engine="vector"``).

The reference engine executes one simulated processor operation at a time
in pure Python; this engine executes a whole phase as array operations:

* block reads and writes are issued as *spans* (a step-1 ``range`` or an
  ``int64`` address array) and applied to memory as slice assignments /
  fancy-index gathers against :class:`DenseMemory`; the columnar
  ``read_each`` / ``write_each`` carry an ``int64`` processor column
  beside their address span;
* per-cell contention comes from interval disjointness when every span is
  a range (O(#blocks log #blocks) — no per-cell work at all), falling back
  to ``np.unique`` over distinct ``(cell, proc)`` pairs plus a bincount
  when spans overlap;
* per-processor ``m_rw`` / ``m_op`` counts are maintained at issue with
  one dict update per *block*, not per cell (per distinct processor for
  a columnar op, from one ``np.unique`` pass);
* queue mappings are materialized lazily: a :class:`CountQueue` compares
  equal to the plain dict the reference engine builds, but costs O(1) to
  aggregate (``max_value`` / ``value_counts``) on collision-free phases.

Selection: pass ``engine="vector"`` to any machine constructor, or set
``REPRO_ENGINE=vector`` in the environment (:func:`resolve_engine`).  The
engine is a *bit-equal* drop-in — identical ``PhaseRecord`` streams, costs,
memory contents, traces and winner-policy RNG draws — property-pinned by
``tests/property/test_engine_equivalence.py``.  Whenever a phase needs
semantics the arrays cannot express directly (write collisions feeding the
winner RNG, GSM strong-queuing merges, trace recording), the pending
vector ops are *materialized* into the reference engine's write dict in
issue order and the reference resolution code runs unchanged — so the
fallback is by construction exact, just slower.

If numpy is unavailable, :func:`resolve_engine` resolves ``"vector"`` to
``"reference"`` — with a one-time ``RuntimeWarning`` — so environment-driven
selection degrades instead of crashing a minimal install, while the
downgrade still leaves a visible trace (the warning, the ``engine``
attribute on every machine, and ``python -m repro version``).
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Mapping, MutableMapping
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # numpy is an optional dependency of the core package
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None  # type: ignore[assignment]

from itertools import repeat

from repro.core.bsp import Superstep
from repro.core.machine import (
    MemoryConflictError,
    Phase,
    PhaseClosedError,
    ReadEachHandle,
    ReadHandle,
    SharedMemoryMachine,
    _check_columns,
    _merge_tally,
    _unwrap_values,
)

__all__ = [
    "ENGINE_ENV",
    "ENGINES",
    "resolve_engine",
    "have_numpy",
    "CountQueue",
    "DenseMemory",
    "VectorBlockReadHandle",
    "VectorReadEachHandle",
    "VectorPhase",
    "VectorSuperstep",
]

#: Environment variable consulted when a machine is built without an
#: explicit ``engine=`` argument.
ENGINE_ENV = "REPRO_ENGINE"

#: The recognised engine names.
ENGINES = ("reference", "vector")


def have_numpy() -> bool:
    """Whether the vector engine's numpy backend is importable."""
    return np is not None


#: Set once the first vector->reference numpy fallback has been warned
#: about, so a sweep constructing thousands of machines warns exactly once.
_numpy_fallback_warned = False


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an ``engine=`` argument to a concrete engine name.

    ``None`` consults ``$REPRO_ENGINE`` (empty/unset means
    ``"reference"``).  An unrecognised name raises ``ValueError``;
    ``"vector"`` without numpy resolves to ``"reference"`` with a one-time
    ``RuntimeWarning`` (the documented fallback) so env-driven selection
    degrades visibly instead of crashing.
    """
    global _numpy_fallback_warned
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "reference"
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r} "
            f"(set via the engine= argument or ${ENGINE_ENV})"
        )
    if engine == "vector" and np is None:
        if not _numpy_fallback_warned:
            _numpy_fallback_warned = True
            warnings.warn(
                "engine='vector' requested but numpy is not importable; "
                "falling back to the bit-equal (but slower) reference "
                "engine for this process",
                RuntimeWarning,
                stacklevel=2,
            )
        return "reference"
    return engine


# -- compact queue mappings ---------------------------------------------------

class CountQueue(Mapping):
    """Compact per-cell queue mapping ``{addr: distinct-processor count}``.

    The reference engine builds these as plain dicts — O(cells) even when
    every queue has depth one.  The vector engine instead records the
    *structure*: a tuple of disjoint ``range`` spans (each cell depth 1),
    an optional small ``extra`` dict for scalar contributions, and/or a
    sorted unique key array with per-key counts.  Aggregates the cost
    formulas need (``max_value``, ``value_counts``, ``len``) come straight
    from that structure; full Mapping behaviour (iteration, lookup,
    equality against the reference dict) materializes a real dict lazily
    and caches it.
    """

    __slots__ = ("_ranges", "_extra", "_keys", "_counts", "_n", "_dict")

    def __init__(
        self,
        ranges: Sequence[range] = (),
        extra: Optional[Mapping[int, int]] = None,
        keys: Optional[Any] = None,
        counts: Optional[Any] = None,
    ) -> None:
        self._ranges = tuple(ranges)
        self._extra = dict(extra) if extra else None
        self._keys = keys
        self._counts = counts
        n = sum(len(r) for r in self._ranges)
        if self._extra:
            n += len(self._extra)
        if keys is not None:
            n += len(keys)
        self._n = n
        self._dict: Optional[Dict[int, int]] = None

    # -- fast aggregates (no materialization) --

    def max_value(self) -> int:
        """Deepest queue, 0 when empty — ``max(self.values(), default=0)``."""
        best = 1 if (self._ranges and self._n) or (
            self._keys is not None and len(self._keys) and self._counts is None
        ) else 0
        if self._extra:
            best = max(best, max(self._extra.values()))
        if self._counts is not None and len(self._counts):
            best = max(best, int(self._counts.max()))
        return best

    def value_counts(self) -> Dict[int, int]:
        """Histogram ``{queue depth: number of cells}`` without iteration."""
        out: Dict[int, int] = {}
        ones = sum(len(r) for r in self._ranges)
        if self._keys is not None:
            if self._counts is None:
                ones += len(self._keys)
            else:
                depths, cells = np.unique(self._counts, return_counts=True)
                for depth, cells_at in zip(depths.tolist(), cells.tolist()):
                    out[depth] = out.get(depth, 0) + cells_at
        if self._extra:
            for depth in self._extra.values():
                out[depth] = out.get(depth, 0) + 1
        if ones:
            out[1] = out.get(1, 0) + ones
        return out

    # -- Mapping protocol (materializes lazily) --

    def _as_dict(self) -> Dict[int, int]:
        d = self._dict
        if d is None:
            d = {}
            for r in self._ranges:
                d.update(dict.fromkeys(r, 1))
            if self._keys is not None:
                keys = self._keys.tolist()
                if self._counts is None:
                    d.update(dict.fromkeys(keys, 1))
                else:
                    d.update(zip(keys, self._counts.tolist()))
            if self._extra:
                d.update(self._extra)
            self._dict = d
        return d

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(self._as_dict())

    def __getitem__(self, key: int) -> int:
        return self._as_dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self._as_dict()

    def __eq__(self, other: object) -> Any:
        if isinstance(other, CountQueue):
            return self._n == other._n and self._as_dict() == other._as_dict()
        if isinstance(other, Mapping):
            return self._as_dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CountQueue({self._as_dict()!r})"


# -- dense memory -------------------------------------------------------------

class DenseMemory(MutableMapping):
    """Array-backed shared memory, dict-compatible, with an ``int64`` lane.

    The reference engine's memory is ``Dict[int, Any]``.  This drop-in
    keeps three stores:

    * ``_ints``/``_tags`` — a dense ``int64`` value array plus a per-cell
      tag (0 unset, 1 int lane, 2 object lane).  Block writes of Python
      ints (or integer ndarrays) land here as slice assignments; block
      reads gather from here and deliver Python ints on ``.values``.
    * ``_objs`` — addr -> value for anything that is not a machine-word
      int (tuples on the GSM, bools, big ints, arbitrary objects).
    * ``_over`` — addr -> value beyond the dense growth limit, so sparse
      huge addresses cost a dict entry instead of gigabytes of backing.

    Compares equal to a plain dict with the same items, so existing
    ``machine._memory == other._memory`` assertions hold across engines.
    """

    __slots__ = ("_ints", "_tags", "_objs", "_over", "_count", "_limit")

    #: Dense backing never grows past this many cells; higher addresses
    #: spill to the overflow dict.  16M cells ~= 144MB of backing.
    GROW_LIMIT = 1 << 24

    def __init__(self, size_hint: Optional[int] = None) -> None:
        if np is None:  # pragma: no cover - constructor gated by resolve_engine
            raise RuntimeError("DenseMemory requires numpy")
        self._limit = self.GROW_LIMIT if size_hint is None else min(
            size_hint, self.GROW_LIMIT
        )
        cap = min(1024, self._limit) or 1
        self._ints = np.zeros(cap, dtype=np.int64)
        self._tags = np.zeros(cap, dtype=np.uint8)
        self._objs: Dict[int, Any] = {}
        self._over: Dict[int, Any] = {}
        self._count = 0

    def _ensure(self, hi: int) -> None:
        """Grow the dense backing to cover address ``hi`` (< limit)."""
        tags = self._tags
        if hi < len(tags):
            return
        cap = max(len(tags) * 2, hi + 1)
        if cap > self._limit:
            cap = max(self._limit, hi + 1)
        new_ints = np.zeros(cap, dtype=np.int64)
        new_tags = np.zeros(cap, dtype=np.uint8)
        new_ints[: len(tags)] = self._ints
        new_tags[: len(tags)] = tags
        self._ints = new_ints
        self._tags = new_tags

    # -- scalar protocol --

    def __setitem__(self, addr: int, value: Any) -> None:
        # Negative (or otherwise non-dense) addresses must not reach the
        # numpy lanes: ``self._tags[-3]`` would silently wrap around.
        if addr < 0 or addr >= self._limit:
            if addr not in self._over:
                self._count += 1
            self._over[addr] = value
            return
        self._ensure(addr)
        old = self._tags[addr]
        if type(value) is int and -9223372036854775808 <= value <= 9223372036854775807:
            self._ints[addr] = value
            self._tags[addr] = 1
            if old == 2:
                del self._objs[addr]
        else:
            self._objs[addr] = value
            self._tags[addr] = 2
        if old == 0:
            self._count += 1

    def __getitem__(self, addr: int) -> Any:
        tags = self._tags
        if 0 <= addr < len(tags):
            tag = tags[addr]
            if tag == 1:
                return int(self._ints[addr])
            if tag == 2:
                return self._objs[addr]
            raise KeyError(addr)
        if addr in self._over:
            return self._over[addr]
        raise KeyError(addr)

    def get(self, addr: int, default: Any = None) -> Any:
        tags = self._tags
        if 0 <= addr < len(tags):
            tag = tags[addr]
            if tag == 1:
                return int(self._ints[addr])
            if tag == 2:
                return self._objs[addr]
            return default
        return self._over.get(addr, default)

    def __delitem__(self, addr: int) -> None:
        tags = self._tags
        if 0 <= addr < len(tags) and tags[addr]:
            if tags[addr] == 2:
                del self._objs[addr]
            tags[addr] = 0
            self._count -= 1
            return
        del self._over[addr]
        self._count -= 1

    def __contains__(self, addr: object) -> bool:
        if type(addr) is not int:
            return False
        tags = self._tags
        if 0 <= addr < len(tags):
            return bool(tags[addr])
        return addr in self._over

    def __iter__(self) -> Iterator[int]:
        yield from np.nonzero(self._tags)[0].tolist()
        yield from self._over

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> Any:
        if isinstance(other, DenseMemory):
            return len(self) == len(other) and dict(self.items()) == dict(other.items())
        if isinstance(other, Mapping):
            if len(self) != len(other):
                return False
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DenseMemory({dict(self.items())!r})"

    # -- bulk protocol (the vector engine's fast lane) --

    def gather(self, span: Any) -> Any:
        """Values of every cell in ``span`` (range or int64 array), in order.

        Returns an ``int64`` ndarray when every cell is on the int lane
        (the common case for numeric algorithms), else a Python list with
        ``None`` for unset cells — exactly what per-cell ``get`` would
        deliver.
        """
        tags = self._tags
        if type(span) is range:
            lo, hi = span.start, span.stop
            if hi <= len(tags):
                seg = tags[lo:hi]
                if (seg == 1).all():
                    return self._ints[lo:hi].copy()
                return self._gather_lanes(np.arange(lo, hi), seg)
            return [self.get(a) for a in span]
        if len(span) and int(span.max()) < len(tags) and int(span.min()) >= 0:
            seg = tags[span]
            if (seg == 1).all():
                return self._ints[span]
            return self._gather_lanes(span, seg)
        return [self.get(a) for a in span.tolist()]

    def _gather_lanes(self, span: Any, seg: Any) -> List[Any]:
        """:meth:`gather` of dense cells on mixed lanes: the int lane in one
        cast, ``None`` for unset cells, object-lane cells one by one."""
        out = np.full(len(span), None, dtype=object)
        ints = seg == 1
        out[ints] = self._ints[span[ints]]  # int64 -> Python int
        values = out.tolist()
        objs = self._objs
        for i in np.flatnonzero(seg == 2).tolist():
            values[i] = objs[int(span[i])]
        return values

    def scatter(self, span: Any, values: Any) -> None:
        """Store ``values[i]`` into the ``i``-th cell of ``span``.

        ``span`` cells must be distinct (the vector engine only scatters
        collision-free phases).  Integer values take the dense lane as one
        slice/fancy assignment; anything else falls back to per-cell
        stores.
        """
        varr = self._int_lane(values)
        if type(span) is range:
            lo, hi = span.start, span.stop
            if varr is not None and hi <= self._limit:
                self._ensure(hi - 1)
                seg = self._tags[lo:hi]
                spilled = np.nonzero(seg == 2)[0]
                if len(spilled):
                    objs = self._objs
                    for off in spilled.tolist():
                        del objs[lo + off]
                self._count += int((seg == 0).sum())
                self._ints[lo:hi] = varr
                self._tags[lo:hi] = 1
                return
            items: Any = zip(span, self._as_value_list(values))
        else:
            if (
                varr is not None
                and len(span)
                and int(span.max()) < self._limit
                and int(span.min()) >= 0
            ):
                self._ensure(int(span.max()))
                seg = self._tags[span]
                spilled = np.nonzero(seg == 2)[0]
                if len(spilled):
                    objs = self._objs
                    addrs = span[spilled].tolist()
                    for a in addrs:
                        del objs[a]
                self._count += int((seg == 0).sum())
                self._ints[span] = varr
                self._tags[span] = 1
                return
            items = zip(span.tolist(), self._as_value_list(values))
        for addr, value in items:
            self[addr] = value

    def update(self, other: Any = ()) -> None:
        """``dict.update`` whose dense int-lane cells land as one
        :meth:`scatter` instead of one ``__setitem__`` each."""
        cells = other if type(other) is dict else dict(other)
        if not cells:
            return
        span = _id_span(list(cells), self._limit, ranges=False)
        if span is None:
            for addr, value in cells.items():
                self[addr] = value
        else:
            self.scatter(span, list(cells.values()))

    @staticmethod
    def _int_lane(values: Any) -> Optional[Any]:
        """``values`` as an int64 array when they are machine-word ints."""
        if isinstance(values, np.ndarray):
            if values.dtype.kind in "iu" and values.dtype != np.bool_:
                return values.astype(np.int64, copy=False)
            return None
        if set(map(type, values)) == {int}:
            try:
                return np.array(values, dtype=np.int64)
            except OverflowError:
                return None
        return None

    @staticmethod
    def _as_value_list(values: Any) -> List[Any]:
        return values.tolist() if isinstance(values, np.ndarray) else list(values)


# -- block read handle --------------------------------------------------------

class VectorBlockReadHandle:
    """Block read handle backed by an address span (range or int64 array).

    Protocol-compatible with :class:`~repro.core.machine.BlockReadHandle`:
    ``.proc`` / ``.addrs`` / ``.resolved`` / ``.values`` / ``len()`` all
    behave identically (``.addrs`` materializes its tuple of Python ints
    lazily).  Additionally exposes ``.array`` — the resolved values as an
    ndarray, without the per-element Python-int conversion ``.values``
    pays — for numeric callers that stay in numpy.
    """

    __slots__ = ("proc", "_span", "_addrs", "_payload", "_resolved")

    def __init__(self, proc: int, span: Any) -> None:
        self.proc = proc
        self._span = span
        self._addrs: Optional[Tuple[int, ...]] = None
        self._payload: Any = None
        self._resolved = False

    @property
    def addrs(self) -> Tuple[int, ...]:
        addrs = self._addrs
        if addrs is None:
            span = self._span
            addrs = tuple(span) if type(span) is range else tuple(span.tolist())
            self._addrs = addrs
        return addrs

    def _resolve(self, payload: Any) -> None:
        self._payload = payload
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
        payload = self._payload
        return payload.tolist() if isinstance(payload, np.ndarray) else list(payload)

    @property
    def array(self) -> Any:
        """Resolved values as an ndarray (int64 lane when possible)."""
        if not self._resolved:
            raise PhaseClosedError(
                "block read values used before their phase committed: the "
                "QSM/GSM read rule only makes values available in a "
                "subsequent phase"
            )
        payload = self._payload
        if isinstance(payload, np.ndarray):
            return payload
        arr = np.empty(len(payload), dtype=object)
        arr[:] = payload
        return arr

    def __len__(self) -> int:
        span = self._span
        return len(span)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "<sealed>" if not self._resolved else repr(self._payload)
        return f"VectorBlockReadHandle(proc={self.proc}, n={len(self)}, values={state})"


class VectorReadEachHandle(VectorBlockReadHandle):
    """Columnar read handle (:meth:`VectorPhase.read_each`): processor
    ``procs[i]`` read cell ``addrs[i]``.  Protocol-compatible with
    :class:`~repro.core.machine.ReadEachHandle`, plus ``.array``."""

    __slots__ = ("_procs",)

    def __init__(self, procs: Any, span: Any) -> None:
        super().__init__(None, span)
        self._procs = procs

    @property
    def procs(self) -> Tuple[int, ...]:
        return tuple(self._procs.tolist())


# -- the vector phase ---------------------------------------------------------

def _disjoint(intervals: List[Tuple[int, int]]) -> bool:
    """Whether sorted ``(start, stop)`` half-open intervals are disjoint."""
    for i in range(len(intervals) - 1):
        if intervals[i][1] > intervals[i + 1][0]:
            return False
    return True


def _covers(intervals: List[Tuple[int, int]], addr: int) -> bool:
    """Whether ``addr`` lies inside any of the sorted intervals."""
    from bisect import bisect_right

    i = bisect_right(intervals, (addr, float("inf"))) - 1
    return i >= 0 and intervals[i][0] <= addr < intervals[i][1]


def _id_span(ids: Any, limit: Optional[int], ranges: bool = True) -> Any:
    """Validate a non-empty id column (addresses, processors, components).

    Returns a step-1 ``range`` (when ``ranges`` and given one) or an
    ``int64`` array — or ``None`` when some entry is not an ``int`` in
    ``[0, limit)`` or exceeds int64.  The caller then replays the
    scalar loop, which raises the loop's own error at its first bad
    pair, or (for ints beyond int64) completes through the scalar ops.
    """
    if type(ids) is range:
        lo, hi = min(ids[0], ids[-1]), max(ids[0], ids[-1])
        if lo < 0 or (limit is not None and hi >= limit):
            return None
        if ranges and ids.step == 1:
            return ids
        return np.arange(ids.start, ids.stop, ids.step, dtype=np.int64)
    if isinstance(ids, np.ndarray):
        if ids.dtype.kind not in "iu":
            return None
        span = ids.astype(np.int64, copy=False)
    else:
        if not set(map(type, ids)) <= {int}:
            return None
        try:
            span = np.fromiter(ids, dtype=np.int64, count=len(ids))
        except OverflowError:
            return None
    if int(span.min()) < 0 or (limit is not None and int(span.max()) >= limit):
        return None
    return span


def _seq(ids: Any) -> Any:
    """A column as something ``len()`` and numpy accept without copying."""
    if type(ids) in (range, tuple, list) or isinstance(ids, np.ndarray):
        return ids
    return tuple(ids)


def _pylist(col: Any) -> Any:
    """A column as the scalar loop sees it (numpy arrays as Python scalars)."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def _write_values(values: Any) -> Any:
    """A write's value column, copied so the caller may reuse its list,
    with resolved handles unwrapped — or ``None`` when one is still sealed
    (see :func:`~repro.core.machine._unwrap_values`)."""
    if isinstance(values, np.ndarray):
        return values
    return _unwrap_values(list(values))


def _increasing(col: Any) -> bool:
    """Whether an int64 column is strictly increasing (so its entries are
    distinct and already sorted)."""
    return len(col) < 2 or bool((col[1:] > col[:-1]).all())


def _tally(pcol: Any) -> Dict[int, int]:
    """``Counter(pcol.tolist())`` from one pass: ``{proc: count}`` in
    first-appearance order.  A non-decreasing column (processors numbered
    in issue order, the PRAM-step shape) is run-length counted without a
    sort; any other goes through ``np.unique``."""
    if len(pcol) < 2 or bool((pcol[1:] >= pcol[:-1]).all()):
        starts = np.flatnonzero(np.diff(pcol, prepend=-1))
        counts = np.diff(starts, append=len(pcol))
        return dict(zip(pcol[starts].tolist(), counts.tolist()))
    procs, first, counts = np.unique(pcol, return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(procs[order].tolist(), counts[order].tolist()))


class VectorPhase(Phase):
    """A phase whose block operations stay as arrays until commit.

    Subclasses :class:`~repro.core.machine.Phase` so scalar bookkeeping,
    the commit protocol and the materialized fallback are shared; block
    and columnar reads land in ``_rblocks`` as spans and *all* writes land
    in ``_wops`` in issue order (``('b', proc, span, values)`` for blocks,
    ``('e', procs, span, values)`` for columnar writes with ``procs`` an
    int64 column, ``('s', proc, addr, value)`` for scalars), with the
    parent's ``_writes`` dict left empty until :meth:`_materialize_writes`
    replays the log — which preserves the reference engine's first-write
    dict order, and with it the winner-policy RNG draw sequence.
    """

    def __init__(self, machine: "SharedMemoryMachine") -> None:
        super().__init__(machine)
        # (proc, span) per block read, (procs column, span) per columnar
        # read, issue order.
        self._rblocks: List[Tuple[Any, Any]] = []
        # The unified write log (see class docstring), issue order.
        self._wops: List[Tuple[Any, ...]] = []
        # Interval hull of the vector block reads (scalar reads use the
        # parent's _readers dict); used to skip conflict probes.
        self._vr_lo: Any = float("inf")
        self._vr_hi: int = -1
        # Lazy membership sets for the hull-overlap (conflict) paths.
        self._wset: Optional[set] = None
        self._wset_upto = 0
        self._rset: Optional[set] = None
        self._rset_upto = 0
        self._materialized = False

    # -- span normalization ----------------------------------------------

    @staticmethod
    def _span_bounds(span: Any) -> Tuple[int, int]:
        if type(span) is range:
            return span.start, span.stop - 1
        return int(span.min()), int(span.max())

    @staticmethod
    def _span_iter(span: Any) -> Any:
        return span if type(span) is range else span.tolist()

    # -- conflict membership sets -----------------------------------------

    def _written_set(self) -> Any:
        if self._materialized:
            # Every write lives in the parent dict once materialized; its
            # key view is the authoritative membership set.
            return self._writes.keys()
        s = self._wset
        if s is None:
            s = self._wset = set(self._writes)
        ops = self._wops
        for op in ops[self._wset_upto:]:
            if op[0] == "s":
                s.add(op[2])
            else:
                span = op[2]
                s.update(span if type(span) is range else span.tolist())
        self._wset_upto = len(ops)
        return s

    def _read_set(self) -> set:
        s = self._rset
        if s is None:
            s = self._rset = set()
        blocks = self._rblocks
        for _, span in blocks[self._rset_upto:]:
            s.update(span if type(span) is range else span.tolist())
        self._rset_upto = len(blocks)
        return s

    def _written_conflict(self, span: Any) -> bool:
        """Whether a read of ``span`` would touch a cell written this phase."""
        lo, hi = self._span_bounds(span)
        if (self._wops or self._writes) and not (
            self._write_hi < lo or self._write_lo > hi
        ):
            return not self._written_set().isdisjoint(self._span_iter(span))
        return False

    def _read_conflict(self, span: Any) -> bool:
        """Whether a write of ``span`` would touch a cell read this phase."""
        readers = self._readers
        if readers and not readers.keys().isdisjoint(self._span_iter(span)):
            return True
        lo, hi = self._span_bounds(span)
        if self._rblocks and not (hi < self._vr_lo or lo > self._vr_hi):
            return not self._read_set().isdisjoint(self._span_iter(span))
        return False

    # -- operations --------------------------------------------------------

    def read(self, proc: int, addr: int) -> ReadHandle:
        self._check_open()
        self._machine._check_proc(proc)
        self._machine._check_addr(addr)
        if (
            self._wops
            and self._write_lo <= addr <= self._write_hi
            and addr in self._written_set()
        ):
            raise MemoryConflictError(
                f"cell {addr} is being written this phase; concurrent read and "
                f"write to one location in a phase is forbidden"
            )
        return super().read(proc, addr)

    def read_block(self, proc: int, addrs: Sequence[int]) -> Any:
        self._check_open()
        self._machine._check_proc(proc)
        addrs = _seq(addrs)
        if not len(addrs):
            handle = VectorBlockReadHandle(proc, range(0))
            handle._resolve([])
            return handle
        span = _id_span(addrs, self._machine.memory_size)
        if span is None or self._written_conflict(span):
            return self._replay_reads(repeat(proc), _pylist(addrs), proc)
        handle = VectorBlockReadHandle(proc, span)
        self._add_read(proc, span, handle)
        self._reads_per_proc[proc] = self._reads_per_proc.get(proc, 0) + len(span)
        return handle

    def read_each(self, procs: Sequence[int], addrs: Sequence[int]) -> Any:
        self._check_open()
        procs = _seq(procs)
        addrs = _seq(addrs)
        _check_columns("read_each", procs, addrs)
        if not len(addrs):
            handle = ReadEachHandle((), ())
            handle._resolve([])
            return handle
        machine = self._machine
        pcol = _id_span(procs, machine.num_processors, ranges=False)
        span = _id_span(addrs, machine.memory_size, ranges=False)
        if pcol is None or span is None or self._written_conflict(span):
            return self._replay_reads(_pylist(procs), _pylist(addrs))
        handle = VectorReadEachHandle(pcol, span)
        self._add_read(pcol, span, handle)
        _merge_tally(self._reads_per_proc, _tally(pcol))
        return handle

    def _add_read(self, procs: Any, span: Any, handle: Any) -> None:
        """Log one validated bulk read (``procs``: an id, or a column)."""
        self._rblocks.append((procs, span))
        self._reads.append(handle)
        lo, hi = self._span_bounds(span)
        if lo < self._vr_lo:
            self._vr_lo = lo
        if hi > self._vr_hi:
            self._vr_hi = hi
        if self._rset is not None:
            self._rset.update(self._span_iter(span))
            self._rset_upto = len(self._rblocks)

    def write(self, proc: int, addr: int, value: Any) -> None:
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
        if addr in self._readers or (
            self._rblocks
            and self._vr_lo <= addr <= self._vr_hi
            and addr in self._read_set()
        ):
            raise MemoryConflictError(
                f"cell {addr} is being read this phase; concurrent read and "
                f"write to one location in a phase is forbidden"
            )
        self._add_write("s", proc, addr, value, addr, addr)
        self._writes_per_proc[proc] = self._writes_per_proc.get(proc, 0) + 1

    def write_block(self, proc: int, items: Sequence[Tuple[int, Any]]) -> None:
        self._check_open()
        self._machine._check_proc(proc)
        pairs = items if type(items) is list else list(items)
        if not pairs:
            return
        try:
            addrs, values = zip(*pairs, strict=True)
        except (TypeError, ValueError):
            addrs = values = ()
        if len(addrs) != len(pairs):
            # Malformed rows (wrong arity); the scalar path reports them.
            for addr, value in pairs:
                self.write(proc, addr, value)
            return
        self._write_cols(proc, addrs, list(values))

    def write_cols(self, proc: int, addrs: Sequence[int], values: Sequence[Any]) -> None:
        self._check_open()
        self._machine._check_proc(proc)
        if len(addrs) != len(values):
            raise ValueError(
                f"write_cols needs parallel columns of equal length, got "
                f"{len(addrs)} addresses and {len(values)} values"
            )
        if not len(addrs):
            return
        self._write_cols(proc, addrs, values)

    def _write_cols(self, proc: int, addrs: Any, values: Any) -> None:
        span = _id_span(_seq(addrs), self._machine.memory_size)
        vals = _write_values(values)
        if span is None or vals is None or self._read_conflict(span):
            self._replay_writes(repeat(proc), _pylist(addrs), _pylist(values))
            return
        lo, hi = self._span_bounds(span)
        self._add_write("b", proc, span, vals, lo, hi)
        self._writes_per_proc[proc] = (
            self._writes_per_proc.get(proc, 0) + len(span)
        )

    def write_each(
        self, procs: Sequence[int], addrs: Sequence[int], values: Sequence[Any]
    ) -> None:
        self._check_open()
        procs = _seq(procs)
        addrs = _seq(addrs)
        values = _seq(values)
        _check_columns("write_each", procs, addrs, values)
        if not len(addrs):
            return
        machine = self._machine
        pcol = _id_span(procs, machine.num_processors, ranges=False)
        span = _id_span(addrs, machine.memory_size, ranges=False)
        vals = _write_values(values)
        if (
            pcol is None
            or span is None
            or vals is None
            or self._read_conflict(span)
        ):
            self._replay_writes(_pylist(procs), _pylist(addrs), _pylist(values))
            return
        lo, hi = self._span_bounds(span)
        self._add_write("e", pcol, span, vals, lo, hi)
        _merge_tally(self._writes_per_proc, _tally(pcol))

    def _add_write(self, kind: str, procs: Any, span: Any, vals: Any, lo: int, hi: int) -> None:
        """Log one validated write op: ``'s'`` scalar (``span`` one
        address), ``'b'`` block (one processor) or ``'e'`` columnar
        (``procs`` a column) — or insert it directly once materialized."""
        if self._materialized:
            self._insert_op(kind, procs, span, vals)
        else:
            self._wops.append((kind, procs, span, vals))
            if self._wset is not None:
                if kind == "s":
                    self._wset.add(span)
                else:
                    self._wset.update(self._span_iter(span))
                self._wset_upto = len(self._wops)
        if hi > self._write_hi:
            self._write_hi = hi
        if lo < self._write_lo:
            self._write_lo = lo

    # -- commit machinery --------------------------------------------------

    def _materialize_writes(self) -> None:
        """Replay the vector write log into the reference write dict.

        Issue order is preserved exactly, so the dict's first-write key
        order — and with it the winner-policy RNG draw sequence, GSM merge
        order and trace content — matches the reference engine's.
        """
        if self._materialized:
            return
        self._materialized = True
        ops, self._wops = self._wops, []
        for op in ops:
            self._insert_op(*op)

    def _insert_op(self, kind: str, procs: Any, span: Any, vals: Any) -> None:
        """Insert one logged write op into the reference write dict."""
        if kind == "s":
            self._insert_writes((procs,), (span,), (vals,))
        else:
            self._insert_writes(
                repeat(procs) if kind == "b" else procs.tolist(),
                self._span_iter(span),
                vals.tolist() if isinstance(vals, np.ndarray) else vals,
            )

    def _vector_write_queue(self) -> Optional[CountQueue]:
        """Write queue for a collision-free write log, else ``None`` after
        materializing (caller then uses the reference dict logic)."""
        intervals: List[Tuple[int, int]] = []
        arrays: List[Any] = []
        for op in self._wops:
            span = op[2]
            if op[0] == "s":
                intervals.append((span, span + 1))
            elif type(span) is range:
                intervals.append((span.start, span.stop))
            else:
                arrays.append(span)
        if not arrays:
            intervals.sort()
            if _disjoint(intervals):
                return CountQueue(
                    ranges=[range(a, b) for a, b in intervals]
                )
            self._materialize_writes()
            return None
        parts = [np.arange(a, b, dtype=np.int64) for a, b in intervals] + arrays
        allw = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if _increasing(allw):  # e.g. one columnar write over a range
            return CountQueue(keys=allw)
        uniq = np.unique(allw)
        if len(uniq) == len(allw):
            return CountQueue(keys=uniq)
        self._materialize_writes()
        return None

    def _vector_read_queue(self) -> Mapping[int, int]:
        """Read queue over the scalar readers dict plus the block spans."""
        readers = self._readers
        intervals: List[Tuple[int, int]] = []
        arrays: List[Tuple[int, Any]] = []
        for proc, span in self._rblocks:
            if type(span) is range:
                intervals.append((span.start, span.stop))
            else:
                arrays.append((proc, span))
        if not arrays:
            intervals.sort()
            if _disjoint(intervals):
                if not readers:
                    return CountQueue(ranges=[range(a, b) for a, b in intervals])
                if all(not _covers(intervals, a) for a in readers):
                    extra = self._scalar_read_queue()
                    return CountQueue(
                        ranges=[range(a, b) for a, b in intervals], extra=extra
                    )
        # General path: distinct (cell, proc) pairs via np.unique.
        addr_parts: List[Any] = []
        proc_parts: List[Any] = []
        for proc, span in self._rblocks:
            arr = np.arange(span.start, span.stop, dtype=np.int64) if type(
                span
            ) is range else span
            addr_parts.append(arr)
            proc_parts.append(
                proc if isinstance(proc, np.ndarray)  # a read_each column
                else np.full(len(arr), proc, dtype=np.int64)
            )
        if readers:
            # One (cell, proc) pair per scalar reader entry: the int entries
            # stand for themselves, a set expands to one pair per reader.
            if self._read_shared:
                cells: List[int] = []
                readers_of: List[int] = []
                for a, procs in readers.items():
                    if type(procs) is set:
                        cells.extend(repeat(a, len(procs)))
                        readers_of.extend(procs)
                    else:
                        cells.append(a)
                        readers_of.append(procs)
            else:
                cells, readers_of = list(readers), list(readers.values())
            addr_parts.append(np.array(cells, dtype=np.int64))
            proc_parts.append(np.array(readers_of, dtype=np.int64))
        addrs = np.concatenate(addr_parts) if len(addr_parts) > 1 else addr_parts[0]
        if _increasing(addrs):
            # Every cell read once (e.g. one columnar read over a range).
            return CountQueue(keys=addrs)
        procs_arr = (
            np.concatenate(proc_parts) if len(proc_parts) > 1 else proc_parts[0]
        )
        maxp = int(procs_arr.max()) + 1
        max_addr = int(addrs.max())
        if max_addr <= (2**62) // maxp:
            uniq = np.unique(addrs * maxp + procs_arr)
            cells = uniq // maxp
        else:  # pragma: no cover - astronomically sparse address spaces
            stacked = np.unique(np.stack([addrs, procs_arr]), axis=1)
            cells = np.sort(stacked[0])
        cells_u, counts = np.unique(cells, return_counts=True)
        if int(counts.max()) == 1:
            return CountQueue(keys=cells_u)
        return CountQueue(keys=cells_u, counts=counts)

    def _build_record(self, index: int):
        machine = self._machine
        if self._wops and (
            machine.record_trace or not machine._plain_write_semantics
        ):
            self._materialize_writes()
        if self._rblocks:
            read_queue: Mapping[int, int] = self._vector_read_queue()
        else:
            read_queue = self._scalar_read_queue()
        if self._wops:
            write_queue = self._vector_write_queue()
            if write_queue is None:  # collisions found; log was materialized
                write_queue = self._dict_write_queue()
        else:
            write_queue = self._dict_write_queue()
        from repro.core.phase import PhaseRecord

        # The record takes the per-processor dicts over, as on the
        # reference engine.
        return PhaseRecord(
            index=index,
            reads_per_proc=self._reads_per_proc,
            writes_per_proc=self._writes_per_proc,
            ops_per_proc=self._ops_per_proc,
            read_queue=read_queue,
            write_queue=write_queue,
        )

    def _resolve_reads(self, machine: "SharedMemoryMachine") -> None:
        memory = machine._memory
        fast = (
            type(memory) is DenseMemory
            and type(machine)._read_cell is SharedMemoryMachine._read_cell
        )
        read_cell = machine._read_cell
        for handle in self._reads:
            t = type(handle)
            if t is ReadHandle:
                handle._resolve(read_cell(handle.addr))
            elif t is VectorBlockReadHandle or t is VectorReadEachHandle:
                if fast:
                    handle._resolve(memory.gather(handle._span))
                else:
                    handle._resolve(
                        [read_cell(a) for a in self._span_iter(handle._span)]
                    )
            else:
                handle._resolve([read_cell(a) for a in handle.addrs])

    def _apply_writes(self, machine: "SharedMemoryMachine") -> None:
        if self._materialized or not self._wops:
            machine._resolve_writes(self)
            return
        # Collision-free, plain single-writer semantics: apply the log as
        # slice assignments, in issue order.
        memory = machine._memory
        if type(memory) is DenseMemory:
            for op in self._wops:
                if op[0] == "s":
                    memory[op[2]] = op[3]
                else:
                    memory.scatter(op[2], op[3])
        else:
            for op in self._wops:
                if op[0] == "s":
                    memory[op[2]] = op[3]
                else:
                    vals = op[3]
                    vals = vals.tolist() if isinstance(vals, np.ndarray) else vals
                    for addr, value in zip(self._span_iter(op[2]), vals):
                        memory[addr] = value


# -- the vector superstep -----------------------------------------------------

class VectorSuperstep(Superstep):
    """A BSP superstep whose bulk sends stay as arrays until delivery.

    Every send lands in ``_vops`` in issue order (``('s', src, dst,
    payload)`` scalar, ``('b', src, dst_array, payloads)`` bulk).  A
    fault-free commit delivers via :meth:`_deliver` — receive counts by
    ``np.bincount``, inbox grouping by two stable argsorts (by sender,
    then by destination), which reproduces the reference engine's
    "sorted by sender, ties in send order" delivery exactly.  When a
    fault plan or deferred messages are in play,
    :meth:`_materialize_outgoing` rebuilds the reference triple list and
    the unchanged reference commit runs.
    """

    _is_vector = True

    def __init__(self, machine: Any) -> None:
        super().__init__(machine)
        self._vops: List[Tuple[Any, ...]] = []

    def send(self, src: int, dst: int, payload: Any) -> None:
        self._check_open()
        machine = self._machine
        machine._check_component(src)
        machine._check_component(dst)
        self._vops.append(("s", src, dst, payload))
        self._sent[src] = self._sent.get(src, 0) + 1

    def send_block(self, src: int, msgs: Sequence[Tuple[int, Any]]) -> None:
        self._check_open()
        machine = self._machine
        machine._check_component(src)
        pairs = list(msgs)
        if not pairs:
            return
        try:
            dsts, payloads = zip(*pairs, strict=True)
        except (TypeError, ValueError):
            dsts = payloads = ()
        if len(dsts) != len(pairs):
            # Malformed rows (wrong arity); the scalar path reports them.
            for dst, payload in pairs:
                self.send(src, dst, payload)
            return
        self._send_cols_checked(src, dsts, payloads)

    def send_cols(self, src: int, dsts: Sequence[int], payloads: Sequence[Any]) -> None:
        self._check_open()
        self._machine._check_component(src)
        if len(dsts) != len(payloads):
            raise ValueError(
                f"send_cols needs parallel columns of equal length, got "
                f"{len(dsts)} destinations and {len(payloads)} payloads"
            )
        if not len(dsts):
            return
        self._send_cols_checked(src, dsts, payloads)

    def _send_cols_checked(self, src: int, dsts: Any, payloads: Any) -> None:
        darr = _id_span(_seq(dsts), self._machine.p, ranges=False)
        if darr is None:
            # A bad destination: the scalar loop raises its own error at
            # its first bad pair.
            for dst, payload in zip(_pylist(dsts), _pylist(payloads)):
                self.send(src, dst, payload)
            return
        self._vops.append(("b", src, darr, payloads))
        self._sent[src] = self._sent.get(src, 0) + len(darr)

    def _materialize_outgoing(self) -> List[Tuple[int, int, Any]]:
        from itertools import repeat

        out: List[Tuple[int, int, Any]] = []
        for op in self._vops:
            if op[0] == "s":
                out.append((op[1], op[2], op[3]))
            else:
                _, src, darr, payloads = op
                out.extend(zip(repeat(src), darr.tolist(), payloads))
        return out

    def _deliver(self) -> Tuple[Dict[int, int], List[List[Tuple[int, Any]]]]:
        """Receive counts and new inboxes, computed with array operations."""
        p = self._machine.p
        n = sum(1 if op[0] == "s" else len(op[2]) for op in self._vops)
        if not n:
            return {}, [[] for _ in range(p)]
        src_a = np.empty(n, dtype=np.int64)
        dst_a = np.empty(n, dtype=np.int64)
        pay_a = np.empty(n, dtype=object)
        i = 0
        for op in self._vops:
            if op[0] == "s":
                src_a[i] = op[1]
                dst_a[i] = op[2]
                pay_a[i] = op[3]
                i += 1
            else:
                _, src, darr, payloads = op
                k = len(darr)
                src_a[i : i + k] = src
                dst_a[i : i + k] = darr
                if isinstance(payloads, np.ndarray):
                    # .tolist() delivers Python scalars, matching what the
                    # reference path would have unpacked from the pairs.
                    pay_a[i : i + k] = payloads.tolist()
                else:
                    pay_a[i : i + k] = np.fromiter(
                        payloads, dtype=object, count=k
                    )
                i += k
        # Reference delivery order: stable-sorted by sender (ties keep send
        # order), appended per destination.  Two stable argsorts — first by
        # sender, then by destination — give exactly that per-inbox order.
        order = np.argsort(src_a, kind="stable")
        final = order[np.argsort(dst_a[order], kind="stable")]
        src_f = src_a[final].tolist()
        pay_f = pay_a[final].tolist()
        pairs = list(zip(src_f, pay_f))
        counts = np.bincount(dst_a, minlength=p)
        new_inboxes: List[List[Tuple[int, Any]]] = []
        start = 0
        for c in counts.tolist():
            new_inboxes.append(pairs[start : start + c])
            start += c
        received = {dst: c for dst, c in enumerate(counts.tolist()) if c}
        return received, new_inboxes
