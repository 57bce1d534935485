"""Per-phase cost-provenance records and per-run dominance summaries.

A :class:`PhaseCostRecord` is the observability counterpart of a
:class:`~repro.core.phase.PhaseRecord`: where the accounting record holds
the raw counts the Section 2 formulas consume, the cost record holds the
*evaluated* terms of the model's ``max()`` — one ``(term name, charged
value)`` pair per term — together with which term won, so the provenance
of every charged unit survives aggregation.

Term names are the formula text: ``"m_op"``, ``"g*m_rw"`` and ``"kappa"``
on the QSM (``"g*kappa"`` on the s-QSM, ``"d*kappa"`` on the QSM(g,d)),
``"mu*ceil(m_rw/alpha)"`` / ``"mu*ceil(kappa/beta)"`` on the GSM, and
``"w"`` / ``"g*h"`` / ``"L"`` on the BSP.  Two invariants hold for every
model (property-tested in ``tests/property/test_obs_props.py``):

* ``cost == max(terms.values())`` for each record, and
* ``sum(max(r.terms.values()) for r in records) == machine.time``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs import tracing as _tracing

__all__ = [
    "PhaseCostRecord",
    "RunCostSummary",
    "dominant_of",
    "summarize",
    "dominant_fractions",
    "machine_cost_records",
]


def _active_trace() -> Optional[Dict[str, str]]:
    """The live span stamp for a record built right now, or ``None``.

    One predicate test when tracing is off — the builders stay zero-cost
    on untraced runs, like every other ``TRACER.enabled`` site.
    """
    if not _tracing.TRACER.enabled:
        return None
    ctx = _tracing.TRACER.current()
    return None if ctx is None else ctx.to_dict()


def dominant_of(terms: Mapping[str, float]) -> str:
    """The winning term: the first key attaining ``max(terms.values())``.

    Term dicts are built in the model's canonical order (local work first,
    then bandwidth, then contention/latency), so ties resolve the same way
    :func:`repro.analysis.timeline.dominant_term` always resolved them.
    """
    best_name = ""
    best = float("-inf")
    for name, value in terms.items():
        if value > best:
            best, best_name = value, name
    return best_name


@dataclass(frozen=True)
class PhaseCostRecord:
    """Cost provenance for one committed phase / superstep.

    Attributes
    ----------
    index:
        0-based phase (superstep) number within the machine's history.
    model:
        Model tag: ``"QSM"``, ``"s-QSM"``, ``"QSM(g,d)"``, ``"GSM"``,
        ``"BSP"``, ``"PRAM"``, ``"MPC"`` or ``"PEM"``.
    terms:
        Term name -> charged value, in the model's canonical term order.
    dominant:
        The term that set the charge (first argmax of ``terms``).
    cost:
        The phase's charge — always ``max(terms.values())``.
    contention:
        Histogram over cells: queue length -> number of cells whose queue
        had that length this phase (read and write queues pooled), keyed
        in ascending length so both engines serialize it identically.  On
        the BSP the analogue: messages received -> number of components.
    ops_per_proc:
        Processor id -> total operations issued this phase (reads + writes
        + local ops; on the BSP: work + sends + receives).
    wall_time:
        Real seconds from phase open to commit when the record was taken
        live (``record_costs=True``); 0.0 when rebuilt from history.
    faults:
        Injected-fault events that fired at this phase, as the
        ``{"step", "kind", "detail"}`` dicts of
        :meth:`repro.faults.plan.FaultEvent.to_dict` — empty on clean
        runs.  Faults ride the same records as costs so a Perfetto trace
        of a chaos run shows *where* the injection hit.
    trace:
        Distributed-trace stamp: the ``{"trace_id", "span_id"}`` of the
        span active when the phase committed (the worker's ``exec`` span
        on a traced campaign run), or ``None``.  Stamped only when
        :data:`repro.obs.tracing.TRACER` is enabled; lets the Perfetto
        merge draw flow arrows from the task span onto the phase rows.
    """

    index: int
    model: str
    terms: Mapping[str, float]
    dominant: str
    cost: float
    contention: Mapping[int, int] = field(default_factory=dict)
    ops_per_proc: Mapping[int, int] = field(default_factory=dict)
    wall_time: float = 0.0
    faults: Tuple[Mapping[str, Any], ...] = ()
    trace: Optional[Mapping[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; :meth:`from_dict` inverts it exactly."""
        row: Dict[str, Any] = {
            "index": self.index,
            "model": self.model,
            "terms": dict(self.terms),
            "dominant": self.dominant,
            "cost": self.cost,
            "contention": {str(k): v for k, v in self.contention.items()},
            "ops_per_proc": {str(k): v for k, v in self.ops_per_proc.items()},
            "wall_time": self.wall_time,
            "faults": [dict(f) for f in self.faults],
        }
        if self.trace is not None:
            row["trace"] = dict(self.trace)
        return row

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PhaseCostRecord":
        trace = data.get("trace")
        return cls(
            index=int(data["index"]),
            model=str(data["model"]),
            terms={str(k): float(v) for k, v in data["terms"].items()},
            dominant=str(data["dominant"]),
            cost=float(data["cost"]),
            contention={int(k): int(v) for k, v in data.get("contention", {}).items()},
            ops_per_proc={int(k): int(v) for k, v in data.get("ops_per_proc", {}).items()},
            wall_time=float(data.get("wall_time", 0.0)),
            faults=tuple(dict(f) for f in data.get("faults", ())),
            trace=None if trace is None else {str(k): str(v) for k, v in trace.items()},
        )


def _depth_counts(queue: Mapping[int, int]) -> Mapping[int, int]:
    """Histogram ``{queue depth: number of cells}`` of a per-cell queue.

    Compact queues (the vector engine's ``CountQueue``) answer from their
    own ``value_counts()`` aggregate without materializing a cell dict, as
    :func:`~repro.core.phase.queue_max` does with ``max_value()``.
    """
    fast = getattr(queue, "value_counts", None)
    return fast() if fast is not None else Counter(queue.values())


def build_phase_cost_record(
    index: int,
    model: str,
    terms: Mapping[str, float],
    cost: float,
    record: "PhaseRecord",  # noqa: F821 - structural; avoids an import cycle
    wall_time: float = 0.0,
    faults: Tuple[Mapping[str, Any], ...] = (),
) -> PhaseCostRecord:
    """Assemble a :class:`PhaseCostRecord` from a shared-memory phase."""
    from repro.core.phase import merge_counts

    contention = merge_counts(
        _depth_counts(record.read_queue), _depth_counts(record.write_queue)
    )
    return PhaseCostRecord(
        index=index,
        model=model,
        terms=dict(terms),
        dominant=dominant_of(terms),
        cost=float(cost),
        contention=dict(sorted(contention.items())),
        ops_per_proc=merge_counts(
            record.reads_per_proc, record.writes_per_proc, record.ops_per_proc
        ),
        wall_time=wall_time,
        faults=tuple(faults),
        trace=_active_trace(),
    )


def build_superstep_cost_record(
    index: int,
    terms: Mapping[str, float],
    cost: float,
    record: "SuperstepRecord",  # noqa: F821 - structural; avoids an import cycle
    wall_time: float = 0.0,
    faults: Tuple[Mapping[str, Any], ...] = (),
    model: str = "BSP",
) -> PhaseCostRecord:
    """Assemble a :class:`PhaseCostRecord` from a BSP-family superstep.

    ``model`` is the machine's ``model_label`` — ``"BSP"`` (the default)
    or ``"MPC"``, whose supersteps share this record shape.
    """
    from repro.core.phase import merge_counts

    contention = dict(sorted(Counter(record.received_per_proc.values()).items()))
    return PhaseCostRecord(
        index=index,
        model=model,
        terms=dict(terms),
        dominant=dominant_of(terms),
        cost=float(cost),
        contention=contention,
        ops_per_proc=merge_counts(
            record.work_per_proc, record.sent_per_proc, record.received_per_proc
        ),
        wall_time=wall_time,
        faults=tuple(faults),
        trace=_active_trace(),
    )


@dataclass(frozen=True)
class RunCostSummary:
    """Aggregation of a run's cost records into dominance statistics.

    ``dominant_phases`` counts how many phases each term won;
    ``dominant_cost`` sums the cost of the phases each term won, so
    ``dominant_cost[t] / total_cost`` is the fraction of the run's charge
    attributable to phases where ``t`` was the binding constraint — the
    "dominant-term fraction" the Table 1 drivers report.
    """

    phases: int
    total_cost: float
    dominant_phases: Mapping[str, int]
    dominant_cost: Mapping[str, float]
    wall_time: float = 0.0

    @property
    def fractions(self) -> Dict[str, float]:
        """Cost-weighted dominant-term fractions, summing to 1.

        A degenerate run whose phases all charged zero (``total_cost ==
        0``) returns an **all-zero** dict over the observed dominant terms
        — same keys as ``dominant_cost``, never a division by zero, and
        an empty dict only for an empty record list.
        """
        if self.total_cost <= 0:
            return {term: 0.0 for term in self.dominant_cost}
        return {
            term: cost / self.total_cost
            for term, cost in self.dominant_cost.items()
        }

    @property
    def dominant(self) -> str:
        """The term that dominated the largest share of the run's cost."""
        return dominant_of(self.dominant_cost)


def _dominance(phases: Iterable[Tuple[str, float, float]]) -> RunCostSummary:
    """Fold ``(dominant term, cost, wall time)`` per phase, in phase order,
    into a :class:`RunCostSummary`."""
    dominant_phases: Dict[str, int] = {}
    dominant_cost: Dict[str, float] = {}
    count = 0
    total = 0.0
    wall = 0.0
    for dominant, cost, wall_time in phases:
        count += 1
        total += cost
        wall += wall_time
        dominant_phases[dominant] = dominant_phases.get(dominant, 0) + 1
        dominant_cost[dominant] = dominant_cost.get(dominant, 0.0) + cost
    return RunCostSummary(
        phases=count,
        total_cost=total,
        dominant_phases=dominant_phases,
        dominant_cost=dominant_cost,
        wall_time=wall,
    )


def summarize(records: List[PhaseCostRecord]) -> RunCostSummary:
    """Aggregate per-phase cost records into a :class:`RunCostSummary`."""
    return _dominance((rec.dominant, rec.cost, rec.wall_time) for rec in records)


def _charged_history(machine: Any) -> Iterable[Tuple[Any, float]]:
    """``(accounting record, charge)`` per committed phase or superstep."""
    from repro.core.bsp import BSP

    costs = machine.step_costs if isinstance(machine, BSP) else machine.phase_costs
    return zip(machine.history, costs)


def machine_cost_records(machine: Any) -> List[PhaseCostRecord]:
    """Cost records for ``machine`` — live if recorded, else rebuilt.

    Machines built with ``record_costs=True`` return their live records
    (which carry per-phase wall time).  Otherwise the records are rebuilt
    from the phase history and the per-phase charges, which yields
    identical terms, dominants, costs, contention histograms and op counts
    — only ``wall_time`` is 0.0 (it is not recoverable after the fact).
    """
    live = getattr(machine, "cost_records", None)
    if live:
        return list(live)
    from repro.core.bsp import BSP

    # Fault events carry their firing step, so rebuilt records recover them.
    faults_by_step: Dict[int, List[Any]] = {}
    for event in getattr(machine, "fault_events", ()):
        faults_by_step.setdefault(event.step, []).append(event.to_dict())

    rebuilt: List[PhaseCostRecord] = []
    bsp = isinstance(machine, BSP)
    for rec, cost in _charged_history(machine):
        faults = tuple(faults_by_step.get(rec.index, ()))
        terms = machine._cost_terms(rec)
        rebuilt.append(
            build_superstep_cost_record(
                rec.index, terms, cost, rec, faults=faults, model=machine.model_label
            )
            if bsp
            else build_phase_cost_record(
                rec.index, machine.model_label, terms, cost, rec, faults=faults
            )
        )
    return rebuilt


def dominant_fractions(machine_or_records: Any, digits: Optional[int] = 4) -> Dict[str, float]:
    """Cost-weighted dominant-term fractions for a machine or record list.

    The convenience the sweep drivers use: returns e.g.
    ``{"kappa": 0.62, "g*m_rw": 0.38}`` meaning 62% of the run's charge
    came from contention-bound phases.  ``digits`` rounds the fractions so
    they serialize stably into stored outcomes (pass ``None`` to keep
    full precision).

    A machine is read from its history: each phase's dominant term from
    ``machine._cost_terms(record)`` and its charge, with no
    :class:`PhaseCostRecord` assembled, so it needs no ``record_costs=True``
    and gives the same keys, order and floats as its live or rebuilt
    records.
    """
    if isinstance(machine_or_records, list):
        summary = summarize(machine_or_records)
    else:
        cost_terms = machine_or_records._cost_terms
        summary = _dominance(
            (dominant_of(cost_terms(rec)), float(cost), 0.0)
            for rec, cost in _charged_history(machine_or_records)
        )
    fractions = summary.fractions
    if digits is None:
        return fractions
    return {term: round(value, digits) for term, value in fractions.items()}
