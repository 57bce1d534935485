"""repro.serve — the multi-tenant campaign service.

Everything the single-shot ``python -m repro campaign`` CLI does, turned
into a long-running HTTP/JSON service: tenants submit named campaigns
(``POST /v1/jobs``), many submissions multiplex onto one warm
:class:`~repro.sched.pool.WorkerPool` with fair-share queueing and
per-tenant quotas (:mod:`repro.sched.tenancy`), results are served out of
the shared content-addressed :class:`~repro.sched.store.ResultStore`
(identical task specs dedup across tenants via their SHA-256 keys), and
``repro.metrics/1`` snapshots stream over Server-Sent Events to a
self-contained live dashboard.

The layering, bottom up:

* :mod:`repro.serve.contracts` — the versioned ``repro.serve/1`` wire
  contracts: request parsing, response envelopes, error codes.
* :mod:`repro.serve.registry` — the catalogue of campaigns a tenant may
  submit by name, with typed/bounded options (no pickled code ever
  crosses the wire).
* :mod:`repro.serve.service` — :class:`~repro.serve.service.CampaignService`,
  the scheduler thread driving a
  :class:`~repro.sched.tenancy.FairShareMultiplexer` plus the pub/sub hub
  feeding every SSE subscriber.
* :mod:`repro.serve.sse` — SSE framing: the writer-side formatter and a
  torn-frame-tolerant parser mirroring
  :func:`repro.obs.snapshot.read_snapshots`.
* :mod:`repro.serve.http` — the stdlib ``HTTPServer`` front end mapping
  routes onto the service, with handler threads reused across
  connections.
* :mod:`repro.serve.ui` — the single-file HTML dashboard served at ``/``.
* :mod:`repro.serve.client` — the thin urllib client behind
  ``python -m repro serve submit|watch``.

Everything is stdlib-only.  See docs/SERVICE.md for the contract schemas,
a curl walkthrough, and the failure semantics.
"""

from repro.serve.contracts import (
    SCHEMA,
    ContractError,
    SubmitRequest,
    error_view,
    job_view,
)
from repro.serve.registry import CampaignEntry, OptionSpec, default_registry
from repro.serve.service import CampaignService
from repro.serve.sse import format_sse_event, iter_sse

__all__ = [
    "SCHEMA",
    "ContractError",
    "SubmitRequest",
    "error_view",
    "job_view",
    "OptionSpec",
    "CampaignEntry",
    "default_registry",
    "CampaignService",
    "format_sse_event",
    "iter_sse",
]
