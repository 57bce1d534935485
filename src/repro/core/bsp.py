"""The BSP simulator (Valiant's model, as specified in Section 2.1).

``p`` processor/memory components communicate by point-to-point messages.
A computation is a sequence of supersteps; messages sent in superstep *t*
are delivered before superstep *t+1* begins, and each component's sends must
be a function of its state at the start of the superstep (enforced the same
way the shared-memory machines enforce read latency: inboxes swap at commit).

Superstep cost is ``max(w, g * h, L)`` where ``w`` is the maximum local work
and ``h = max_i max(s_i, r_i)`` is the routed h-relation.  The paper assumes
``L >= g``; :class:`~repro.core.params.BSPParams` enforces it.

The input convention of Section 2.1 — an input of size ``n`` is partitioned
uniformly so each component holds ``ceil(n/p)`` or ``floor(n/p)`` items —
is provided by :meth:`BSP.scatter`.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import itemgetter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import bsp_cost_terms, bsp_superstep_cost
from repro.core.machine import PhaseClosedError, _all_ids
from repro.core.params import BSPParams
from repro.core.phase import SuperstepRecord
from repro.obs import metrics as _metrics

__all__ = ["BSP", "Superstep"]

# Sort/count keys over (src, dst, payload) triples, at C speed.
_by_src = itemgetter(0)
_by_dst = itemgetter(1)


class Superstep:
    """One open BSP superstep; use via ``with bsp.superstep() as ss:``."""

    def __init__(self, machine: "BSP") -> None:
        self._machine = machine
        self._open = True
        self._outgoing: List[Tuple[int, int, Any]] = []  # (src, dst, payload)
        self._sent: Dict[int, int] = {}
        self._work: Dict[int, int] = {}

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Component ``src`` sends ``payload`` to component ``dst``.

        Delivery happens when the superstep commits; the message appears in
        ``bsp.inbox(dst)`` during the next superstep.
        """
        self._check_open()
        self._machine._check_component(src)
        self._machine._check_component(dst)
        self._outgoing.append((src, dst, payload))
        self._sent[src] = self._sent.get(src, 0) + 1

    def send_block(self, src: int, msgs: Sequence[Tuple[int, Any]]) -> None:
        """Component ``src`` sends every ``(dst, payload)`` pair in ``msgs``.

        Semantically identical to ``for dst, m in msgs: ss.send(src, dst, m)``
        (including on error: a bad destination aborts the superstep at that
        pair, just as the scalar loop would) but the outgoing queue and
        per-component send counter update with aggregate operations.
        """
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
        if len(dsts) != len(pairs) or not _all_ids(dsts, machine.p):
            # Malformed rows or a bad destination: the scalar loop raises
            # its own error at its first bad pair.
            for dst, payload in pairs:
                self.send(src, dst, payload)
            return
        self._outgoing.extend(zip(repeat(src), dsts, payloads))
        self._sent[src] = self._sent.get(src, 0) + len(pairs)

    def send_cols(self, src: int, dsts: Sequence[int], payloads: Sequence[Any]) -> None:
        """Column form of :meth:`send_block`: ``payloads[i]`` to ``dsts[i]``.

        Semantically identical to ``ss.send_block(src, list(zip(dsts,
        payloads)))`` without building the pair list.  The columns must
        have equal length.
        """
        self._check_open()
        self._machine._check_component(src)
        if len(dsts) != len(payloads):
            raise ValueError(
                f"send_cols needs parallel columns of equal length, got "
                f"{len(dsts)} destinations and {len(payloads)} payloads"
            )
        self.send_block(src, list(zip(dsts, payloads)))

    def local(self, proc: int, ops: int = 1) -> None:
        """Charge ``ops`` units of local work to component ``proc``."""
        self._check_open()
        self._machine._check_component(proc)
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        self._work[proc] = self._work.get(proc, 0) + ops

    def _check_open(self) -> None:
        if not self._open:
            raise PhaseClosedError("superstep already committed")

    def __enter__(self) -> "Superstep":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self._machine._commit(self)
        finally:
            # Whether the superstep aborted or the commit itself raised
            # (e.g. a bad params object in bsp_superstep_cost), release the
            # machine so later supersteps don't hit PhaseClosedError — the
            # same try/finally discipline Phase.__exit__ uses.
            self._machine._step_open = False
            self._open = False
        return False


class BSP:
    """Bulk-Synchronous Parallel machine with ``p`` components.

    ``record_costs=True`` appends a
    :class:`~repro.obs.records.PhaseCostRecord` per committed superstep to
    ``bsp.cost_records`` (terms ``L`` / ``g*h`` / ``w``, the dominant
    term, a received-messages histogram, per-component op counts, wall
    time), mirroring the shared-memory machines' flag.
    """

    model_label = "BSP"

    def __init__(
        self,
        p: int,
        params: Optional[BSPParams] = None,
        seed: Optional[int] = 0,
        record_costs: bool = False,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if type(p) is not int:
            raise ValueError(f"BSP component count must be an int, got {p!r}")
        if p < 1:
            raise ValueError(f"BSP needs at least one component, got p={p}")
        self.p = p
        self.params = params if params is not None else BSPParams()
        # Local stores are plain dicts owned by the orchestrating algorithm.
        self.store: List[Dict[Any, Any]] = [dict() for _ in range(p)]
        self._inboxes: List[List[Tuple[int, Any]]] = [[] for _ in range(p)]
        self.history: List[SuperstepRecord] = []
        self.step_costs: List[float] = []
        self.record_costs = record_costs
        self.cost_records: List["PhaseCostRecord"] = []
        self.time: float = 0.0
        self._step_open = False
        # Fault injection (see repro.faults.plan): messages a fault defers
        # are parked here as (due_step, (src, dst, payload)) and merged into
        # the inboxes after the superstep with that index commits.
        self.fault_plan = fault_plan
        self.fault_events: List[Any] = []
        self._deferred: List[Tuple[int, Tuple[int, int, Any]]] = []
        if fault_plan is not None:
            fault_plan.attach(self)

    # -- data movement helpers (uncharged setup) -----------------------------

    def scatter(self, values: Sequence[Any], key: Any = "input") -> None:
        """Partition ``values`` uniformly across components (Section 2.1).

        Component ``i`` receives a contiguous slice of size ``ceil(n/p)`` or
        ``floor(n/p)``; the slice is stored under ``store[i][key]`` together
        with its global offset under ``store[i][(key, 'offset')]``.  Input
        placement is part of the model's initial condition and is not
        charged.
        """
        n = len(values)
        base, extra = divmod(n, self.p)
        start = 0
        for i in range(self.p):
            size = base + (1 if i < extra else 0)
            self.store[i][key] = list(values[start : start + size])
            self.store[i][(key, "offset")] = start
            start += size

    def gather(self, key: Any = "input") -> List[Any]:
        """Concatenate each component's ``store[key]`` list (verifier use)."""
        out: List[Any] = []
        for i in range(self.p):
            out.extend(self.store[i].get(key, []))
        return out

    # -- superstep protocol ---------------------------------------------------

    def superstep(self) -> Superstep:
        if self._step_open:
            raise PhaseClosedError("a superstep is already open; they cannot nest")
        self._step_open = True
        step = Superstep(self)
        if self.record_costs:
            step._t_open = perf_counter()
        return step

    def inbox(self, proc: int) -> List[Tuple[int, Any]]:
        """Messages delivered to ``proc`` at the end of the previous superstep.

        Each entry is ``(src, payload)``.  Order is deterministic: sorted by
        sender id, ties broken by send order.  (The BSP does not guarantee
        arrival order; algorithms must not rely on it, and the deterministic
        order here merely makes runs reproducible.  Tests shuffle inboxes to
        check order-independence.)
        """
        self._check_component(proc)
        return list(self._inboxes[proc])

    @property
    def superstep_count(self) -> int:
        return len(self.history)

    # -- internals --------------------------------------------------------------

    def _cost_terms(self, record: SuperstepRecord) -> Dict[str, float]:
        """Evaluated terms of ``max(w, g*h, L)`` (see
        :func:`repro.core.cost.bsp_cost_terms` for the tie order)."""
        return bsp_cost_terms(record, self.params)

    def _superstep_cost(self, record: SuperstepRecord) -> float:
        """Charge for one committed superstep (subclass cost hook).

        Invariant (shared with the phase machines' ``_phase_cost``):
        equals ``max(self._cost_terms(record).values())``.  MPC overrides
        both hooks with its capacity-tiled round charge.
        """
        return bsp_superstep_cost(record, self.params)

    def _check_component(self, proc: int) -> None:
        if not isinstance(proc, int) or isinstance(proc, bool):
            raise TypeError(f"component id must be an int, got {proc!r}")
        if not 0 <= proc < self.p:
            raise ValueError(f"component id {proc} out of range for p={self.p}")

    def _commit(self, step: Superstep) -> None:
        index = len(self.history)
        step_faults: Tuple[Dict[str, Any], ...] = ()
        outgoing = step._outgoing
        if self.fault_plan is not None:
            # Route this superstep's messages through the fault plan:
            # drops vanish, duplicates double, delayed/stalled messages
            # park in self._deferred until their due superstep commits.
            outgoing, deferred, fired = self.fault_plan.route_bsp(index, outgoing)
            if deferred:
                self._deferred.extend(deferred)
            if fired:
                self.fault_events.extend(fired)
                step_faults = tuple(ev.to_dict() for ev in fired)
        if self._deferred:
            matured = [m for due, m in self._deferred if due <= index]
            if matured:
                self._deferred = [
                    (due, m) for due, m in self._deferred if due > index
                ]
                outgoing = list(outgoing) + matured
        received = dict(Counter(map(_by_dst, outgoing)))
        new_inboxes = [[] for _ in range(self.p)]
        # Deterministic delivery order: by sender, then send order (the
        # sort is stable, so sorting on sender alone preserves each
        # sender's issue order; matured deferred messages sort with
        # their sender).
        for src, dst, payload in sorted(outgoing, key=_by_src):
            new_inboxes[dst].append((src, payload))
        record = SuperstepRecord(
            index=index,
            work_per_proc=dict(step._work),
            sent_per_proc=dict(step._sent),
            received_per_proc=received,
        )
        cost = self._superstep_cost(record)
        self._inboxes = new_inboxes
        self.history.append(record)
        self.step_costs.append(cost)
        self.time += cost
        if _metrics.REGISTRY.enabled:
            _metrics.record_superstep(
                record, cost, len(step_faults), model=self.model_label
            )
        if self.record_costs:
            from repro.obs.records import build_superstep_cost_record

            self.cost_records.append(
                build_superstep_cost_record(
                    record.index,
                    self._cost_terms(record),
                    cost,
                    record,
                    wall_time=perf_counter() - getattr(step, "_t_open", perf_counter()),
                    faults=step_faults,
                    model=self.model_label,
                )
            )
        self._step_open = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BSP(p={self.p}, g={self.params.g}, L={self.params.L}, "
            f"supersteps={self.superstep_count}, time={self.time})"
        )
