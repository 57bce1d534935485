"""Exporters for cost-provenance records: JSONL streams and Chrome traces.

Two formats, two audiences:

* **JSONL** (:func:`write_jsonl` / :func:`read_jsonl`) — one
  :class:`~repro.obs.records.PhaseCostRecord` per line as JSON, for
  programmatic consumption (pandas, jq, downstream dashboards).  The
  round trip is exact: ``read_jsonl(write_jsonl(records, p)) == records``.
* **Chrome trace-event JSON** (:func:`write_chrome_trace`) — the
  ``traceEvents`` format consumed by Perfetto (https://ui.perfetto.dev)
  and ``chrome://tracing``: one complete ("X") event per phase laid out on
  the *simulated* time axis (1 cost unit = 1 microsecond), named by its
  dominant term, with the full term decomposition in ``args``.  Load the
  file in Perfetto and the run's cost structure is a timeline you can
  scrub: contention-bound phases, bandwidth-bound stretches, latency
  floors.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.obs.records import PhaseCostRecord

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "scheduler_trace_events",
    "metrics_counter_events",
    "trace_span_events",
    "combined_trace_events",
    "write_combined_trace",
    "lane_pid",
    "lane_metadata_event",
    "TRACE_LANES",
    "PHASE_PID",
    "SCHEDULER_PID",
    "METRICS_PID",
    "SERVICE_PID",
]

PathOrFile = Union[str, IO[str]]


def _open_for(path_or_file: PathOrFile, mode: str):
    if isinstance(path_or_file, str):
        return open(path_or_file, mode, encoding="utf-8"), True
    return path_or_file, False


def write_jsonl(records: Iterable[PhaseCostRecord], path: PathOrFile) -> int:
    """Write one JSON object per record, newline-delimited; returns the count.

    ``path`` may be a filesystem path or an open text file object.
    """
    fh, owned = _open_for(path, "w")
    count = 0
    try:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True))
            fh.write("\n")
            count += 1
    finally:
        if owned:
            fh.close()
    return count


def read_jsonl(path: PathOrFile) -> List[PhaseCostRecord]:
    """Parse a JSONL stream written by :func:`write_jsonl` back to records."""
    fh, owned = _open_for(path, "r")
    try:
        records: List[PhaseCostRecord] = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno} is not valid JSON: {exc}") from exc
            records.append(PhaseCostRecord.from_dict(data))
        return records
    finally:
        if owned:
            fh.close()


#: Simulated cost units per exported microsecond.  Trace-event timestamps
#: are microseconds; mapping one cost unit to one microsecond keeps phase
#: durations integer-free of rounding surprises at typical run sizes.
_US_PER_COST_UNIT = 1.0


#: The single source of truth for Perfetto lane (pid) allocation.  Every
#: exporter in this module draws its pid from this table, so the phase,
#: scheduler and metrics lanes can never collide however the writers are
#: combined — and each lane is labelled by a ``process_name`` metadata
#: event (:func:`lane_metadata_event`) rather than by bare pid numbers.
TRACE_LANES: Dict[str, Tuple[int, str]] = {
    "phase": (0, "repro.obs phase costs"),
    "scheduler": (1, "repro.sched campaign"),
    "metrics": (2, "repro.obs metrics"),
    "service": (3, "repro.serve distributed trace"),
}


def lane_pid(lane: str) -> int:
    """The pid assigned to a named lane (phase/scheduler/metrics/service)."""
    try:
        return TRACE_LANES[lane][0]
    except KeyError:
        raise ValueError(
            f"unknown trace lane {lane!r}; know {sorted(TRACE_LANES)}"
        ) from None


def lane_metadata_event(lane: str, pid: int = None) -> Dict[str, Any]:  # type: ignore[assignment]
    """The ``process_name`` metadata event labelling a lane's Perfetto row."""
    default_pid, name = TRACE_LANES[lane]
    return {
        "name": "process_name",
        "ph": "M",
        "pid": default_pid if pid is None else pid,
        "tid": 0,
        "args": {"name": name},
    }


def chrome_trace_events(
    records: Iterable[PhaseCostRecord],
    pid: int = None,  # type: ignore[assignment]
    tid: int = 0,
) -> List[Dict[str, Any]]:
    """Records -> trace-event dicts (``ph: "X"``), on the simulated clock.

    Events are laid end to end: phase *i* starts where phase *i-1* ended,
    so ``ts`` is the machine's cumulative simulated time at phase open and
    ``dur`` is the phase's charge.  ``ts`` is therefore monotone
    non-decreasing in emission order — the invariant the exporter tests
    pin.  Each event's ``args`` carries the term decomposition, the
    dominant term, the contention histogram and the live wall time.

    A record carrying injected-fault events additionally emits one instant
    event (``ph: "i"``, thread scope) per fault at the phase's open
    timestamp, named ``fault: <kind>`` with the full fault dict in
    ``args`` — so a chaos run's Perfetto timeline pins each injection to
    the phase it hit.
    """
    if pid is None:
        pid = lane_pid("phase")
    events: List[Dict[str, Any]] = []
    clock = 0.0
    for rec in records:
        dur = rec.cost * _US_PER_COST_UNIT
        events.append(
            {
                "name": f"phase {rec.index}: {rec.dominant}",
                "cat": rec.model,
                "ph": "X",
                "ts": clock,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "args": {
                    "terms": dict(rec.terms),
                    "dominant": rec.dominant,
                    "cost": rec.cost,
                    "contention": {str(k): v for k, v in rec.contention.items()},
                    "wall_time_s": rec.wall_time,
                },
            }
        )
        for fault in rec.faults:
            events.append(
                {
                    "name": f"fault: {fault.get('kind', '?')}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "ts": clock,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(fault),
                }
            )
        clock += dur
    return events


#: Lane pids, exported as constants for callers that pass explicit pids.
#: Phase cost records export under pid 0, campaign task spans under pid 1,
#: metrics counters under pid 2 — three Perfetto processes that never
#: interleave on one row (see :data:`TRACE_LANES`).
PHASE_PID = lane_pid("phase")
SCHEDULER_PID = lane_pid("scheduler")
METRICS_PID = lane_pid("metrics")
SERVICE_PID = lane_pid("service")

#: One Perfetto thread row per span kind, outermost first, so a trace
#: reads top-down: HTTP request over job over tasks over executions.
_TRACE_KIND_ROWS: Dict[str, int] = {
    "request": 0,
    "job": 1,
    "task": 2,
    "exec": 3,
    "internal": 4,
}


def _flow_id(span_id: str) -> int:
    """A stable positive 63-bit flow id derived from a span id."""
    try:
        return int(span_id, 16) & 0x7FFFFFFFFFFFFFFF
    except (TypeError, ValueError):
        return abs(hash(span_id)) & 0x7FFFFFFFFFFFFFFF


def _trace_layout(
    rows: List[Dict[str, Any]],
    t0: float = None,  # type: ignore[assignment]
) -> List[Tuple[Dict[str, Any], float, float, int]]:
    """Place ``repro.trace/1`` span dicts on the wall-clock axis.

    Returns ``(row, ts_us, dur_us, tid)`` per span, with timestamps
    relative to ``t0`` (default: the earliest span start in the batch).
    """
    if t0 is None:
        starts = [float(r.get("start") or 0.0) for r in rows]
        t0 = min(starts) if starts else 0.0
    out = []
    for row in rows:
        start = float(row.get("start") or 0.0)
        end = float(row.get("end") or start)
        ts = (start - t0) * 1e6
        dur = max(0.0, (end - start) * 1e6)
        tid = _TRACE_KIND_ROWS.get(str(row.get("kind", "internal")), 4)
        out.append((row, ts, dur, tid))
    return out


def trace_span_events(
    rows: Iterable[Dict[str, Any]],
    pid: int = SERVICE_PID,
    t0: float = None,  # type: ignore[assignment]
) -> List[Dict[str, Any]]:
    """``repro.trace/1`` span dicts -> service-lane events with flow links.

    Each finished span becomes a complete ("X") event on the wall-clock
    axis (earliest span = t=0), one thread row per span kind (request /
    job / task / exec).  Every parent-child edge *within the batch*
    additionally emits a Perfetto flow pair (``ph: "s"`` at the parent,
    ``ph: "f"`` at the child), so clicking an HTTP request span in
    https://ui.perfetto.dev draws arrows down through the job, its
    tasks, and the remote executions that served them — across hosts,
    when the batch came from ``python -m repro trace merge``.
    """
    rows = list(rows)
    events: List[Dict[str, Any]] = [lane_metadata_event("service", pid=pid)]
    for kind, tid in sorted(_TRACE_KIND_ROWS.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"{kind} spans"},
            }
        )
    layout = _trace_layout(rows, t0=t0)
    by_span_id = {
        str(row.get("span_id")): (row, ts, dur, tid)
        for row, ts, dur, tid in layout
        if row.get("span_id")
    }
    for row, ts, dur, tid in layout:
        events.append(
            {
                "name": str(row.get("name", "?")),
                "cat": f"trace.{row.get('kind', 'internal')}",
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "args": {
                    "trace_id": row.get("trace_id"),
                    "span_id": row.get("span_id"),
                    "parent_span_id": row.get("parent_span_id"),
                    "kind": row.get("kind"),
                    "status": row.get("status"),
                    "host": row.get("host"),
                    "attrs": dict(row.get("attrs") or {}),
                },
            }
        )
        parent = by_span_id.get(str(row.get("parent_span_id") or ""))
        if parent is not None:
            p_row, p_ts, p_dur, p_tid = parent
            flow = _flow_id(str(row.get("span_id")))
            common = {"cat": "trace.flow", "name": "parent", "id": flow, "pid": pid}
            # The flow-start timestamp must land inside the parent slice;
            # clamp to its end for children that start after it closed
            # (a job span outliving its request span, e.g.).
            events.append(
                dict(common, ph="s", ts=min(max(p_ts, ts), p_ts + p_dur), tid=p_tid)
            )
            events.append(dict(common, ph="f", bp="e", ts=ts, tid=tid))
    return events


def scheduler_trace_events(
    spans: Iterable[Dict[str, Any]],
    pid: int = SCHEDULER_PID,
) -> List[Dict[str, Any]]:
    """Campaign task spans -> scheduler-lane trace events.

    ``spans`` are the ``to_dict()`` forms of
    :class:`repro.sched.campaign.TaskSpan` (plain mappings keep this
    module free of a ``repro.sched`` import).  Executed and cached tasks
    become complete ("X") events on the *wall-clock* axis (campaign-start
    relative, seconds -> microseconds), one Perfetto thread row per pool
    worker (cached/inline tasks on worker row 0, the scheduler's own
    lane); failed and skipped tasks additionally emit an instant event so
    the holes in a campaign timeline are labelled.  Metadata events name
    the process "repro.sched campaign" and each worker row.
    """
    events: List[Dict[str, Any]] = [lane_metadata_event("scheduler", pid=pid)]
    named_tids = set()
    for span in spans:
        status = span.get("status", "?")
        tid = int(span.get("worker") or 0)
        if tid not in named_tids:
            named_tids.add(tid)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"worker {tid}" if tid else "scheduler"},
                }
            )
        ts = float(span.get("start") or 0.0) * 1e6
        args = {
            "key": span.get("key"),
            "status": status,
            "attempts": span.get("attempts"),
            "error": span.get("error"),
        }
        if status in ("done", "cached"):
            dur = max(0.0, float(span.get("end") or 0.0) * 1e6 - ts)
            events.append(
                {
                    "name": f"{span.get('name', '?')}"
                            + (" [cached]" if status == "cached" else ""),
                    "cat": "task",
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "name": f"{status}: {span.get('name', '?')}",
                    "cat": "scheduler",
                    "ph": "i",
                    "s": "t",
                    "ts": max(ts, float(span.get("end") or 0.0) * 1e6),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    return events


def write_chrome_trace(
    records: Iterable[PhaseCostRecord],
    path: PathOrFile,
    pid: int = None,  # type: ignore[assignment]
    tid: int = 0,
) -> int:
    """Write records as Chrome trace-event JSON; returns the event count.

    The output is the object form (``{"traceEvents": [...]}``) with
    ``displayTimeUnit`` set, which both Perfetto and ``chrome://tracing``
    accept.  Open https://ui.perfetto.dev and drag the file in.
    """
    events = chrome_trace_events(records, pid=pid, tid=tid)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "clock": "simulated model time (1 cost unit = 1us)"},
    }
    fh, owned = _open_for(path, "w")
    try:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    finally:
        if owned:
            fh.close()
    return len(events)


def metrics_counter_events(
    snapshots: Iterable[Any],
    pid: int = None,  # type: ignore[assignment]
) -> List[Dict[str, Any]]:
    """Metrics snapshots -> Perfetto counter-lane events (``ph: "C"``).

    ``snapshots`` are :class:`repro.obs.snapshot.MetricsSnapshot` objects
    (or their ``to_dict()`` forms).  Each counter/gauge series becomes one
    counter track named ``metric{k=v,...}``; each histogram contributes
    ``metric.count`` and ``metric.mean`` tracks.  Timestamps are the
    snapshots' run-relative wall clock (seconds -> microseconds) — the
    same axis as the scheduler spans, so the counters line up under a
    campaign's task timeline in one Perfetto view.
    """
    if pid is None:
        pid = lane_pid("metrics")
    events: List[Dict[str, Any]] = [lane_metadata_event("metrics", pid=pid)]
    for snap in snapshots:
        data = snap if isinstance(snap, dict) else snap.to_dict()
        ts = float(data.get("t_rel", 0.0)) * 1e6
        for metric in data.get("metrics", ()):
            name = metric.get("name", "?")
            kind = metric.get("type", "?")
            for sample in metric.get("samples", ()):
                labels = sample.get("labels", {})
                series = name + (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels else ""
                )
                if kind == "histogram":
                    count = int(sample.get("count", 0))
                    total = float(sample.get("sum", 0.0))
                    values = {
                        f"{series}.count": float(count),
                        f"{series}.mean": (total / count) if count else 0.0,
                    }
                else:
                    values = {series: float(sample.get("value", 0.0))}
                for track, value in values.items():
                    events.append(
                        {
                            "name": track,
                            "cat": "metrics",
                            "ph": "C",
                            "ts": ts,
                            "pid": pid,
                            "tid": 0,
                            "args": {"value": value},
                        }
                    )
    return events


def combined_trace_events(
    spans: Iterable[Dict[str, Any]] = (),
    snapshots: Iterable[Any] = (),
    phase_lanes: Sequence[Tuple[str, Iterable[PhaseCostRecord]]] = (),
    trace_spans: Iterable[Dict[str, Any]] = (),
) -> List[Dict[str, Any]]:
    """Merge scheduler spans, metrics snapshots, phase records and
    distributed-trace spans into one event list — the
    single-Perfetto-view export of a campaign run.

    ``phase_lanes`` is a sequence of ``(label, records)`` pairs (typically
    one per campaign task that returned ``cost_records``); each pair gets
    its own ``tid`` row under the phase lane, labelled by a
    ``thread_name`` metadata event.  ``trace_spans`` are ``repro.trace/1``
    span dicts (:func:`trace_span_events`); when a phase record carries a
    ``trace`` stamp whose span is in the batch, a Perfetto flow pair
    links the exec span down to that phase row, completing the HTTP
    request -> job -> task -> exec -> phase chain.  The four lanes keep
    their pids from :data:`TRACE_LANES`, so nothing collides.

    Note the clocks differ by design: scheduler spans, metrics counters
    and trace spans share the wall clock, while each phase row runs on
    its task's *simulated* cost clock (1 cost unit = 1 us).
    """
    events: List[Dict[str, Any]] = []
    span_list = list(spans)
    if span_list:
        events.extend(scheduler_trace_events(span_list))
    snap_list = list(snapshots)
    if snap_list:
        events.extend(metrics_counter_events(snap_list))
    trace_list = list(trace_spans)
    trace_locs: Dict[str, Tuple[float, float, int]] = {}
    if trace_list:
        events.extend(trace_span_events(trace_list))
        trace_locs = {
            str(row.get("span_id")): (ts, dur, tid)
            for row, ts, dur, tid in _trace_layout(trace_list)
            if row.get("span_id")
        }
    phase_pid = lane_pid("phase")
    if phase_lanes:
        events.append(lane_metadata_event("phase"))
        flow_seq = 0
        for tid, (label, records) in enumerate(phase_lanes):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": phase_pid,
                    "tid": tid,
                    "args": {"name": str(label)},
                }
            )
            record_list = list(records)
            events.extend(chrome_trace_events(record_list, pid=phase_pid, tid=tid))
            # chrome_trace_events lays phases end to end from t=0; walk
            # the same clock here to aim each flow at its phase slice.
            clock = 0.0
            for rec in record_list:
                dur = rec.cost * _US_PER_COST_UNIT
                stamp = getattr(rec, "trace", None)
                src = trace_locs.get(str((stamp or {}).get("span_id")))
                if src is not None:
                    s_ts, s_dur, s_tid = src
                    flow_seq += 1
                    flow = _flow_id(f"{stamp['span_id']}:phase:{flow_seq}")
                    common = {
                        "cat": "trace.flow",
                        "name": "phase",
                        "id": flow,
                    }
                    events.append(
                        dict(common, ph="s", ts=s_ts + s_dur / 2,
                             pid=SERVICE_PID, tid=s_tid)
                    )
                    events.append(
                        dict(common, ph="f", bp="e", ts=clock,
                             pid=phase_pid, tid=tid)
                    )
                clock += dur
    return events


def write_combined_trace(
    path: PathOrFile,
    spans: Iterable[Dict[str, Any]] = (),
    snapshots: Iterable[Any] = (),
    phase_lanes: Sequence[Tuple[str, Iterable[PhaseCostRecord]]] = (),
    trace_spans: Iterable[Dict[str, Any]] = (),
) -> int:
    """Write the merged campaign trace (spans + counters + phase rows +
    distributed-trace spans with flow links).

    Same container format as :func:`write_chrome_trace`; load the file at
    https://ui.perfetto.dev and a single demo-campaign run shows its
    scheduling timeline, its metrics counter lanes, the per-task
    simulated phase timelines and (on traced runs) the distributed span
    tree stacked in one view.  Returns the event count.
    """
    events = combined_trace_events(
        spans=spans, snapshots=snapshots, phase_lanes=phase_lanes,
        trace_spans=trace_spans,
    )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "clock": (
                "scheduler/metrics: campaign wall time; "
                "phase rows: simulated model time (1 cost unit = 1us)"
            ),
        },
    }
    fh, owned = _open_for(path, "w")
    try:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    finally:
        if owned:
            fh.close()
    return len(events)
