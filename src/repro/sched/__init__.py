"""repro.sched — campaign execution: warm workers, result store, DAG runner.

The scale layer of the reproduction.  Regenerating Table 1 and the
Section 8 suite means thousands of independent simulation points — and
the chaos/adversary gates multiply that again.  This package turns those
runs from per-driver scripts into a small execution service:

* :mod:`repro.sched.pool` — :class:`~repro.sched.pool.WorkerPool`, the
  one pool of warm worker processes: import :mod:`repro` once, then
  stream pickled tasks over the frames of :mod:`repro.sched.net`.
  Without a port it forks local workers over socketpairs (a lost one is
  a crash at once); with one it serves remote ``python -m repro
  worker`` processes over TCP (a lost one's task requeues).  Both get
  watchdog timeouts, and local workers are recycled.
* :mod:`repro.sched.store` — :class:`~repro.sched.store.ResultStore`, a
  content-addressed outcome store keyed by SHA-256 of (task spec,
  code-relevant version), with atomic writes, schema-validated reads,
  quarantine of corrupt entries, age-based :meth:`~repro.sched.store.ResultStore.prune`
  GC, and :func:`~repro.sched.store.import_bench_cache` for migrating the
  legacy per-driver ``BENCH_*.json`` caches.
* :mod:`repro.sched.campaign` — declarative task DAGs
  (:class:`~repro.sched.campaign.TaskSpec` /
  :class:`~repro.sched.campaign.Campaign`) executed by
  :func:`~repro.sched.campaign.run_campaign` with dependencies,
  priorities, backpressure, mid-campaign cancel, store-backed resume, and
  per-task :class:`~repro.sched.campaign.TaskSpan` spans exported to the
  scheduler lane of the Chrome-trace exporter.
* :mod:`repro.sched.campaigns` — the shipped campaigns: the four Table 1
  drivers, the Section 8 suite, the chaos gate, and the demo graph behind
  ``python -m repro campaign run demo``.
* :mod:`repro.sched.tenancy` — the multi-tenant layer behind
  ``python -m repro serve``:
  :class:`~repro.sched.tenancy.FairShareMultiplexer` interleaves many
  concurrent :class:`~repro.sched.campaign.CampaignExecution` state
  machines on one shared pool with per-tenant fair-share round-robin,
  :class:`~repro.sched.tenancy.TenantQuota` admission limits, and live
  cross-tenant dedup of in-flight content keys.

See docs/SCHEDULER.md for the architecture and the CLI
(``python -m repro campaign run|status|resume|prune``), and
docs/SERVICE.md for the multi-tenant HTTP service on top.
"""

from repro.sched.campaign import (
    Campaign,
    CampaignError,
    CampaignExecution,
    CampaignReport,
    TaskSpan,
    TaskSpec,
    campaign_status,
    run_campaign,
)
from repro.sched.pool import MAX_TASKS_PER_WORKER, PoolEvent, WorkerPool
from repro.sched.store import (
    ResultStore,
    StoreStats,
    canonical_spec,
    content_key,
    fn_ref,
    import_bench_cache,
    task_spec,
)
from repro.sched.tenancy import (
    FairShareMultiplexer,
    JobRecord,
    QuotaExceeded,
    TenantQuota,
)

__all__ = [
    "WorkerPool",
    "PoolEvent",
    "MAX_TASKS_PER_WORKER",
    "ResultStore",
    "StoreStats",
    "content_key",
    "canonical_spec",
    "fn_ref",
    "task_spec",
    "import_bench_cache",
    "TaskSpec",
    "Campaign",
    "TaskSpan",
    "CampaignReport",
    "CampaignError",
    "CampaignExecution",
    "run_campaign",
    "campaign_status",
    "FairShareMultiplexer",
    "JobRecord",
    "TenantQuota",
    "QuotaExceeded",
]
