"""The versioned ``repro.serve/1`` wire contracts.

Every JSON object that crosses the service boundary — requests in,
responses and SSE event payloads out — carries a ``"schema"`` key set to
:data:`SCHEMA`, the same convention as the ``repro.metrics/1`` snapshot
lines and the ``repro.store/1`` objects.  A client can therefore reject
a version skew before interpreting a single field, and the docs checker
(``tools/check_docs.py``) validates that every JSON example in
docs/SERVICE.md states its schema.

Parsing is strict and total: :meth:`SubmitRequest.from_dict` either
returns a validated request or raises :class:`ContractError` with a
stable machine-readable ``code`` and the HTTP status the front end
should map it to.  Nothing here imports the HTTP layer — the contracts
are testable round-trip without a socket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.sched.tenancy import JobRecord

__all__ = [
    "SCHEMA",
    "ContractError",
    "SubmitRequest",
    "job_view",
    "jobs_view",
    "fleet_view",
    "slo_view",
    "error_view",
    "DEFAULT_TENANT",
    "TENANT_HEADER",
]

#: Schema tag stamped into every request and response envelope.
SCHEMA = "repro.serve/1"

#: Header naming the submitting tenant; absent means :data:`DEFAULT_TENANT`.
TENANT_HEADER = "X-Repro-Tenant"

#: Tenant attributed to requests that do not identify themselves.
DEFAULT_TENANT = "anonymous"


class ContractError(ValueError):
    """A request violated the ``repro.serve/1`` contract.

    ``code`` is stable and machine-readable (``"bad_schema"``,
    ``"bad_request"``, ``"unknown_campaign"``, ``"bad_option"``,
    ``"quota_jobs"``, ``"quota_tasks"``, ``"not_found"``,
    ``"wrong_tenant"``); ``status`` is the HTTP status the front end
    responds with.
    """

    def __init__(self, code: str, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.code = code
        self.status = status

    def to_dict(self) -> Dict[str, Any]:
        return error_view(self.code, str(self))


def error_view(code: str, message: str) -> Dict[str, Any]:
    """The error response envelope."""
    return {"schema": SCHEMA, "error": {"code": code, "message": message}}


@dataclass(frozen=True)
class SubmitRequest:
    """A validated ``POST /v1/jobs`` body.

    ``campaign`` names an entry in the service's campaign registry;
    ``options`` are the builder options the registry validates against
    its typed, bounded :class:`~repro.serve.registry.OptionSpec` list.
    The submitting tenant travels in the ``X-Repro-Tenant`` header, not
    the body, so a reverse proxy can set it authoritatively.
    """

    campaign: str
    options: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; :meth:`from_dict` inverts it exactly."""
        return {
            "schema": SCHEMA,
            "campaign": self.campaign,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SubmitRequest":
        if not isinstance(data, Mapping):
            raise ContractError(
                "bad_request", f"request body must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ContractError(
                "bad_schema",
                f"expected schema {SCHEMA!r}, got {schema!r}",
            )
        campaign = data.get("campaign")
        if not isinstance(campaign, str) or not campaign:
            raise ContractError(
                "bad_request", "'campaign' must be a non-empty string"
            )
        options = data.get("options", {})
        if not isinstance(options, Mapping):
            raise ContractError(
                "bad_request", f"'options' must be an object, got {type(options).__name__}"
            )
        unknown = sorted(set(data) - {"schema", "campaign", "options"})
        if unknown:
            raise ContractError(
                "bad_request", f"unknown request field(s): {', '.join(unknown)}"
            )
        return cls(campaign=campaign, options=dict(options))


def job_view(job: JobRecord, campaign: Optional[str] = None) -> Dict[str, Any]:
    """The job response envelope (also the SSE ``job`` event payload).

    ``counts`` maps span status (``done``/``cached``/``failed``/
    ``skipped``/``pending``) to task counts — live while the job runs,
    frozen from its spans once terminal.  A resubmission fully served by
    the store shows every task ``cached``: that is the dedup contract in
    ISSUE terms ("the second tenant's tasks report cached").

    ``trace_id`` is the job's distributed-trace id (``null`` unless the
    service runs with ``REPRO_TRACE`` on) — grep it across the merged
    ``repro.trace/1`` file to see the job's whole span tree, HTTP
    request through remote workers to per-phase cost records.
    """
    return {
        "schema": SCHEMA,
        "job": {
            "id": job.id,
            "tenant": job.tenant,
            "campaign": campaign if campaign is not None else job.campaign_name,
            "state": job.state,
            "created": job.created,
            "started": job.started,
            "finished": job.finished,
            "tasks": job.task_count,
            "counts": job.counts(),
            "error": job.error,
            "trace_id": job.trace_id,
        },
    }


def jobs_view(jobs: Any) -> Dict[str, Any]:
    """The job-list response envelope."""
    return {
        "schema": SCHEMA,
        "jobs": [job_view(j)["job"] for j in jobs],
    }


def slo_view(summary: Mapping[str, Any]) -> Dict[str, Any]:
    """The SLO response envelope (``GET /v1/slo``).

    ``summary`` is :func:`repro.obs.tracing.slo_summary` output: exact
    nearest-rank p50/p95/p99 over finished span durations, bucketed into
    ``task`` (one dispatch → resolution) and ``end_to_end`` (job submit →
    terminal state).  ``enabled: false`` means the service runs without
    ``REPRO_TRACE`` and the buckets are empty — the endpoint still
    answers 200 so dashboards need no feature detection.
    """
    return {"schema": SCHEMA, "slo": dict(summary)}


def fleet_view(pool: Any) -> Dict[str, Any]:
    """The worker-fleet envelope (``GET /v1/workers``, SSE ``workers``).

    Every worker row has the same shape — forked local workers report
    ``transport: "pipe"`` with no address or heartbeat, remote workers
    report ``transport: "tcp"`` plus their registration state,
    generation, and last heartbeat latency (docs/DISTRIBUTED.md).
    ``listen`` is the pool's worker-facing address (absent when the pool
    forks its workers locally).
    """
    rows = pool.fleet() if hasattr(pool, "fleet") else []
    out: Dict[str, Any] = {
        "schema": SCHEMA,
        "workers": rows,
        "live": sum(1 for r in rows if r.get("state") == "live"),
    }
    address = getattr(pool, "address", None)
    if address is not None:
        out["listen"] = f"{address[0]}:{address[1]}"
    return out
