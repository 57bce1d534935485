"""Frame-level network faults for the TCP worker fabric.

The simulator fault plans (:mod:`repro.faults.plan`) act on BSP message
routing; this module is the same idea one layer down: faults that act on
*protocol frames* crossing the wire between a
:class:`~repro.sched.pool.WorkerPool` and its remote workers.  The
injection point is the chaos proxy (:mod:`repro.sched.net.proxy`), which
sits between the two and consults a :class:`NetFaultPlan` for every
frame it forwards.

=============  =========================================================
kind           effect at the proxy
=============  =========================================================
``drop``       the matching frame vanishes
``delay``      the matching frame is forwarded ``delay_s`` seconds late
               (its direction of that link is held, so order is kept)
``duplicate``  the matching frame is forwarded twice
``partition``  the matching frame *and every frame in either direction*
               for the next ``duration_s`` seconds vanish — the network
               is down; registrations during the window fail too
``reconnect``  both sockets of the matching frame's link are closed
               (the frame is lost); the worker must redial
=============  =========================================================

A fault matches on ``direction`` (``"c2s"`` worker->scheduler /
``"s2c"`` / ``None`` for either) and ``frame`` (a type from
:data:`repro.sched.net.frames.FRAME_TYPES`, or ``None`` for any), and
fires on the ``nth`` match (1-based) — frame counting is what makes a
chaos case deterministic: "the first result frame" is the same frame
every run, regardless of thread timing.  Like the simulator faults,
every fault is transient by default (``firings=1``): it fires once and
stays spent, so a retried delivery outlives it.  Firings are recorded
as :class:`~repro.faults.plan.FaultEvent` rows (``step`` = the global
frame sequence number) on the plan.

The plan is consulted from the proxy's per-link pump threads, so all
match/spend bookkeeping is lock-guarded.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.faults.plan import FaultEvent
from repro.sched.net.frames import FRAME_TYPES

__all__ = ["NetFault", "NetFaultPlan", "NET_FAULT_KINDS"]

NET_FAULT_KINDS = ("drop", "delay", "duplicate", "partition", "reconnect")

_DIRECTIONS = ("c2s", "s2c")


class NetFault:
    """One scheduled frame-level fault.  See the module kind table."""

    def __init__(
        self,
        kind: str,
        *,
        direction: Optional[str] = None,
        frame: Optional[str] = None,
        nth: int = 1,
        delay_s: float = 0.25,
        duration_s: float = 1.0,
        firings: Optional[int] = 1,
    ) -> None:
        if kind not in NET_FAULT_KINDS:
            raise ValueError(
                f"net fault kind must be one of {NET_FAULT_KINDS}, got {kind!r}"
            )
        if direction is not None and direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
        if frame is not None and frame not in FRAME_TYPES:
            raise ValueError(f"frame must be one of {FRAME_TYPES}, got {frame!r}")
        if nth < 1:
            raise ValueError(f"nth is 1-based, got {nth}")
        if kind == "delay" and delay_s <= 0:
            raise ValueError(f"delay_s must be positive, got {delay_s}")
        if kind == "partition" and duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if firings is not None and firings < 1:
            raise ValueError(f"firings must be >= 1 (or None for unlimited), got {firings}")
        self.kind = kind
        self.direction = direction
        self.frame = frame
        self.nth = int(nth)
        self.delay_s = float(delay_s)
        self.duration_s = float(duration_s)
        self.firings = firings
        self.remaining = firings  # None = unlimited
        self.matched = 0  # matching frames seen so far (for nth)

    @property
    def exhausted(self) -> bool:
        return self.remaining is not None and self.remaining <= 0

    def rearm(self) -> None:
        self.remaining = self.firings
        self.matched = 0

    def _matches(self, direction: str, frame_kind: str) -> bool:
        return (self.direction is None or direction == self.direction) and (
            self.frame is None or frame_kind == self.frame
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "nth": self.nth}
        if self.direction is not None:
            out["direction"] = self.direction
        if self.frame is not None:
            out["frame"] = self.frame
        if self.kind == "delay":
            out["delay_s"] = self.delay_s
        if self.kind == "partition":
            out["duration_s"] = self.duration_s
        if self.firings != 1:
            out["firings"] = self.firings
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NetFault({self.to_dict()!r})"


class NetFaultPlan:
    """Frame-fault schedule + partition state, consulted per frame.

    Thread-safe: the proxy's pump threads call :meth:`decide` for every
    frame; match counting, spending, the partition window, and the
    firing log are all guarded by one lock.
    """

    def __init__(self, faults: Iterable[Any] = (), label: str = "net-plan") -> None:
        self.label = label
        self.faults: List[NetFault] = []
        for f in faults:
            if isinstance(f, NetFault):
                self.faults.append(f)
            elif isinstance(f, Mapping):
                spec = dict(f)
                kind = spec.pop("kind")
                self.faults.append(NetFault(kind, **spec))
            else:
                raise TypeError(f"fault must be a NetFault or a spec dict, got {f!r}")
        self.events: List[FaultEvent] = []
        self._lock = threading.Lock()
        self._seq = 0  # global frame counter, the FaultEvent step
        self._partition_until = 0.0  # monotonic

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for fault in self.faults:
                fault.rearm()
            self.events = []
            self._seq = 0
            self._partition_until = 0.0

    @property
    def fired(self) -> int:
        return len(self.events)

    def to_specs(self) -> List[Dict[str, Any]]:
        return [f.to_dict() for f in self.faults]

    def partition(self, duration_s: float) -> None:
        """Open a partition window now (programmatic, no trigger frame)."""
        with self._lock:
            self._partition_until = time.monotonic() + float(duration_s)
            self.events.append(
                FaultEvent(self._seq, "partition",
                           {"duration_s": float(duration_s), "trigger": "manual"})
            )

    @property
    def partitioned(self) -> bool:
        with self._lock:
            return time.monotonic() < self._partition_until

    # -- the per-frame consult ----------------------------------------------

    def decide(self, direction: str, frame_kind: str) -> Tuple[str, Optional[NetFault]]:
        """The proxy's verdict for one frame: ``(action, fault_or_None)``.

        Actions: ``"forward"``, ``"drop"`` (faulted), ``"blackhole"``
        (inside a partition window), ``"delay"``, ``"duplicate"``,
        ``"reconnect"``.  A firing spends the fault and appends a
        :class:`FaultEvent`; the frame that *triggers* a partition is
        itself inside the window (it is lost).
        """
        with self._lock:
            self._seq += 1
            seq = self._seq
            now = time.monotonic()
            if now < self._partition_until:
                return "blackhole", None
            for fault in self.faults:
                if fault.exhausted or not fault._matches(direction, frame_kind):
                    continue
                fault.matched += 1
                if fault.matched < fault.nth:
                    continue
                if fault.remaining is not None:
                    fault.remaining -= 1
                detail: Dict[str, Any] = {
                    "direction": direction, "frame": frame_kind,
                }
                if fault.kind == "partition":
                    self._partition_until = now + fault.duration_s
                    detail["duration_s"] = fault.duration_s
                elif fault.kind == "delay":
                    detail["delay_s"] = fault.delay_s
                self.events.append(FaultEvent(seq, fault.kind, detail))
                if fault.kind == "partition":
                    # The triggering frame is inside the window: lost.
                    return "blackhole", fault
                return fault.kind, fault
            return "forward", None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NetFaultPlan({self.label!r}, faults={len(self.faults)}, fired={self.fired})"
