"""The acceptance demo for the fault-tolerant sweep runner.

:func:`run_sweep_demo` drives :func:`repro.analysis.parallel_sweep.parallel_sweep`
through every failure mode it claims to survive, in one sweep:

* a **torn result-store entry** pre-seeded on disk (quarantined, its point
  re-runs);
* a point whose worker **crashes hard** (``os._exit``) on the first attempt;
* a point that **hangs** past the watchdog timeout on the first attempt;
* a point that **always fails** (recorded as an error outcome, never stored).

The transient modes use marker files (not in-memory state: each attempt
runs in a fresh worker process) so the retry attempt succeeds — modelling a
flaky machine rather than a broken experiment.  The demo then *re-runs* the
sweep against the same :class:`~repro.sched.store.ResultStore` to show it
resumes: completed points are served from the store and only the
genuinely-broken point re-executes.

``python -m repro chaos`` runs this alongside the algorithm probes; the
dedicated tests in ``tests/analysis/test_parallel_sweep.py`` cover each
mode in isolation.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from functools import partial
from typing import Any, Dict

from repro.analysis.parallel_sweep import parallel_sweep
from repro.sched.store import ResultStore

__all__ = ["run_sweep_demo", "demo_point"]


def demo_point(n: int, mode: str, scratch: str = "") -> Dict[str, Any]:
    """One demo grid point; ``mode`` selects its failure behaviour.

    Module-level (and curried with :func:`functools.partial`) so worker
    processes can unpickle it under any start method.
    """
    marker = os.path.join(scratch, f"fired-{mode}-{n}")
    if mode == "crash-once":
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(13)  # hard death: no exception, no cleanup
    elif mode == "hang-once":
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            time.sleep(600.0)  # far past the watchdog; worker is terminated
    elif mode == "broken":
        raise ValueError("this point is permanently broken")
    elif mode != "ok":
        raise ValueError(f"unknown demo mode {mode!r}")
    return {"measured": float(n), "correct": True, "mode": mode}


def run_sweep_demo(jobs: int = 2, timeout: float = 1.5) -> Dict[str, Any]:
    """Run the full crash/hang/corruption scenario; return a summary dict.

    The summary's ``survived`` key is the headline: True iff the sweep
    completed with exactly one (permanently broken) error point, the
    torn store entry was quarantined, and the re-run resumed from the store.
    """
    grid = {"n": [2, 3], "mode": ["ok", "crash-once", "hang-once", "broken"]}
    with tempfile.TemporaryDirectory(prefix="repro-chaos-demo-") as scratch:
        store = ResultStore(os.path.join(scratch, "store"))
        run = partial(demo_point, scratch=scratch)
        torn = store.path_for(store.key_for(run, {"n": 2, "mode": "ok"}))
        os.makedirs(os.path.dirname(torn))
        with open(torn, "w", encoding="utf-8") as fh:
            fh.write('{"truncated": ')  # a torn write from a dead run

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = parallel_sweep(
                grid,
                run,
                jobs=jobs,
                store=store,
                timeout=timeout,
                retries=1,
                backoff=0.01,
                on_error="record",
            )
        failed = [p for p in points if p.failed]
        retried = [
            p for p in points
            if not p.failed and p.extra.get("sweep_attempts", 1) > 1
        ]

        # Re-run: everything that succeeded is served from the store; the
        # broken points run again (their markers now exist, so the transient
        # modes would pass anyway — but they never re-execute at all).
        resumed = parallel_sweep(
            grid,
            run,
            jobs=jobs,
            store=store,
            timeout=timeout,
            retries=0,
            on_error="record",
        )
        resumed_failed = [p for p in resumed if p.failed]

        quarantined = os.path.exists(torn + ".quarantined")
        summary = {
            "points": len(points),
            "completed": len(points) - len(failed),
            "failed": sorted(p.params["mode"] for p in failed),
            "recovered_after_retry": sorted(p.params["mode"] for p in retried),
            "cache_quarantined": quarantined,
            "quarantine_warned": any("quarantined" in str(w.message) for w in caught),
            "resume_points": len(resumed),
            "resume_failed": sorted(p.params["mode"] for p in resumed_failed),
        }
        summary["survived"] = (
            len(points) == 8
            and summary["failed"] == ["broken", "broken"]
            and set(summary["recovered_after_retry"]) == {"crash-once", "hang-once"}
            and quarantined
            and len(resumed) == 8
            and summary["resume_failed"] == ["broken", "broken"]
        )
        return summary
