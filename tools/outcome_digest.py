"""One digest over every outcome in a result store.

Run from the repository root:

    PYTHONPATH=src python tools/outcome_digest.py STORE [STORE ...] [--count N]

For each store, prints ``<outcomes> <sha256>  <STORE>``: the number of
stored outcomes and one SHA-256 over ``(key, canonical outcome JSON)`` in
key order.  Two stores filled by the same campaign on different code (two
engines, or a parent commit and a change) hold byte-identical outcomes
exactly when their digests match.

Exit status 1 when two given stores' digests differ, or when ``--count``
is given and a store holds another number of outcomes; 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import List, Optional, Tuple

from repro.sched.store import ResultStore


def outcome_digest(root: str) -> Tuple[int, str]:
    """``(count, hex digest)`` of the outcomes stored under ``root``."""
    store = ResultStore(root)
    digest = hashlib.sha256()
    count = 0
    for key in sorted(store.keys()):
        outcome = store.get_outcome(key)
        if outcome is None:  # quarantined as unreadable
            continue
        text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
        digest.update(f"{key}\n{text}\n".encode("utf-8"))
        count += 1
    return count, digest.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stores", nargs="+", metavar="STORE")
    parser.add_argument(
        "--count", type=int, help="fail unless every store holds this many outcomes"
    )
    args = parser.parse_args(argv)
    status = 0
    digests = set()
    for root in args.stores:
        count, digest = outcome_digest(root)
        print(f"{count} {digest}  {root}")
        digests.add(digest)
        if args.count is not None and count != args.count:
            print(f"{root}: {count} outcomes, expected {args.count}", file=sys.stderr)
            status = 1
    if len(digests) > 1:
        print("stores hold different outcomes", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
