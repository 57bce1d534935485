"""Output checks shared by every workload.

A job that finishes ``done`` is not enough: a wrong answer does not fail
a job today, it only sets ``correct: false`` in the task's outcome.  So
the benchmark reads every outcome back from the result store itself and
fails the run on any that is not correct.  It also folds the simulated
costs (``measured``) of a fixed, seed-determined set of jobs into a
digest, so two runs with one seed can be compared for bit-equal output.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple


def read_store(root: str) -> List[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """``(key, spec, outcome)`` for every entry in the store at ``root``."""
    from repro.sched.store import ResultStore

    store = ResultStore(root)
    rows = []
    for key in sorted(store.keys()):
        entry = store.get(key)
        if entry is not None:
            rows.append((key, entry["spec"], entry["outcome"]))
    return rows


def incorrect(rows: List[Tuple[str, Dict[str, Any], Dict[str, Any]]]) -> List[str]:
    """Keys whose stored outcome is not ``correct: true``."""
    return [key for key, _, outcome in rows if outcome.get("correct") is not True]


def digest(
    rows: List[Tuple[str, Dict[str, Any], Dict[str, Any]]],
    keep: Optional[Callable[[Dict[str, Any]], bool]] = None,
) -> str:
    """SHA-256 over the simulated cost of each kept outcome.

    Items are ordered by task spec, not by store key, so the digest does
    not change with the store's version salt.  An outcome without
    ``measured`` (the chaos cases) is folded in whole.
    """
    items = sorted(
        json.dumps([spec, outcome.get("measured", outcome)], sort_keys=True)
        for _, spec, outcome in rows
        if keep is None or keep(spec)
    )
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
    return h.hexdigest()[:16]
