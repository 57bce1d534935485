"""Experiment PERF — phase-engine throughput and the parallel sweep runner.

Two measurements back the "fast as the hardware allows" roadmap item:

1. **Scalar vs block phase operations.**  The same access pattern (each of
   ``PROCS`` processors touching a contiguous chunk of cells, contention 1)
   is issued once through per-operation ``ph.read``/``ph.write`` calls and
   once through the bulk ``ph.read_block``/``ph.write_block`` API, plus the
   BSP analogue (``ss.send`` vs ``ss.send_block``).  The headline ops/sec
   times the *operation-issue* path — the code the block API replaces.
   Commit time is reported separately: both paths produce an identical
   pending phase, so the commit does identical work either way and folding
   it into the ratio would only dilute the measurement toward 1x.
2. **Serial vs parallel sweep.**  A Table 1a parity grid is run through
   ``sweep()`` and ``parallel_sweep()`` and the outcomes are checked for
   exact equality — the parallel runner must be a drop-in, whatever the
   job count.  Wall-clock for both is printed (on multi-core hosts the
   parallel runner wins; on one core it only demonstrates isolation).

Run as ``python -m repro perf`` (honours ``--jobs``), or under
``pytest benchmarks/`` for the asserting targets.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from benchmarks.common import PerfRow, ns_from_env, print_perf_rows
from repro.algorithms.parity import parity_blocks
from repro.analysis.parallel_sweep import default_jobs, parallel_sweep
from repro.analysis.sweep import sweep
from repro.core import BSP, BSPParams, QSM, QSMParams
from repro.lowerbounds.formulas import bounds_for
from repro.problems import gen_bits, verify_parity

N_OPS = 10**5
PROCS = 100


# --- scalar vs block micro-benchmarks ---------------------------------------

def _chunks(n: int, procs: int) -> List[range]:
    per = -(-n // procs)
    return [range(p * per, min((p + 1) * per, n)) for p in range(procs) if p * per < n]


def time_scalar_reads(n: int = N_OPS, procs: int = PROCS) -> Tuple[float, float]:
    m = QSM(QSMParams(g=2), seed=0)
    chunks = _chunks(n, procs)
    ph = m.phase()
    t0 = time.perf_counter()
    with ph:
        read = ph.read
        for proc, chunk in enumerate(chunks):
            for addr in chunk:
                read(proc, addr)
        t1 = time.perf_counter()
    return t1 - t0, time.perf_counter() - t1


def time_block_reads(n: int = N_OPS, procs: int = PROCS) -> Tuple[float, float]:
    m = QSM(QSMParams(g=2), seed=0)
    chunks = _chunks(n, procs)
    ph = m.phase()
    t0 = time.perf_counter()
    with ph:
        for proc, chunk in enumerate(chunks):
            ph.read_block(proc, chunk)
        t1 = time.perf_counter()
    return t1 - t0, time.perf_counter() - t1


def time_scalar_writes(n: int = N_OPS, procs: int = PROCS) -> Tuple[float, float]:
    m = QSM(QSMParams(g=2), seed=0)
    payload = [[(addr, addr) for addr in chunk] for chunk in _chunks(n, procs)]
    ph = m.phase()
    t0 = time.perf_counter()
    with ph:
        write = ph.write
        for proc, items in enumerate(payload):
            for addr, value in items:
                write(proc, addr, value)
        t1 = time.perf_counter()
    return t1 - t0, time.perf_counter() - t1


def time_block_writes(n: int = N_OPS, procs: int = PROCS) -> Tuple[float, float]:
    m = QSM(QSMParams(g=2), seed=0)
    payload = [[(addr, addr) for addr in chunk] for chunk in _chunks(n, procs)]
    ph = m.phase()
    t0 = time.perf_counter()
    with ph:
        for proc, items in enumerate(payload):
            ph.write_block(proc, items)
        t1 = time.perf_counter()
    return t1 - t0, time.perf_counter() - t1


def time_scalar_sends(n: int = N_OPS, procs: int = PROCS) -> Tuple[float, float]:
    bsp = BSP(procs, BSPParams(g=1, L=1))
    per = -(-n // procs)
    payload = [[((src + 1) % procs, i) for i in range(per)] for src in range(procs)]
    ss = bsp.superstep()
    t0 = time.perf_counter()
    with ss:
        send = ss.send
        for src, msgs in enumerate(payload):
            for dst, item in msgs:
                send(src, dst, item)
        t1 = time.perf_counter()
    return t1 - t0, time.perf_counter() - t1


def time_block_sends(n: int = N_OPS, procs: int = PROCS) -> Tuple[float, float]:
    bsp = BSP(procs, BSPParams(g=1, L=1))
    per = -(-n // procs)
    payload = [[((src + 1) % procs, i) for i in range(per)] for src in range(procs)]
    ss = bsp.superstep()
    t0 = time.perf_counter()
    with ss:
        for src, msgs in enumerate(payload):
            ss.send_block(src, msgs)
        t1 = time.perf_counter()
    return t1 - t0, time.perf_counter() - t1


_PAIRS = [
    ("read/scalar", "read/block", time_scalar_reads, time_block_reads),
    ("write/scalar", "write/block", time_scalar_writes, time_block_writes),
    ("send/scalar", "send/block", time_scalar_sends, time_block_sends),
]


def _best(fn, n: int, repeats: int) -> Tuple[float, float]:
    """Best-of-``repeats`` (issue, commit) timings, each stage independently."""
    samples = [fn(n) for _ in range(repeats)]
    return min(s[0] for s in samples), min(s[1] for s in samples)


def engine_rows(n: int = N_OPS, repeats: int = 3) -> List[PerfRow]:
    """Best-of-``repeats`` issue-path ops/sec rows for every scalar/block pair.

    Commit time is carried in each row's ``note`` — it is the same work for
    both paths (the pending phase they build is identical).
    """
    rows: List[PerfRow] = []
    for scalar_name, block_name, scalar_fn, block_fn in _PAIRS:
        scalar_issue, scalar_commit = _best(scalar_fn, n, repeats)
        block_issue, block_commit = _best(block_fn, n, repeats)
        rows.append(
            PerfRow(scalar_name, n, n, scalar_issue, note=f"+{scalar_commit:.3f}s commit")
        )
        rows.append(
            PerfRow(block_name, n, n, block_issue, note=f"+{block_commit:.3f}s commit")
        )
    return rows


def block_speedup(kind: str = "read", n: int = N_OPS, repeats: int = 3) -> float:
    """Block-path issue ops/sec over scalar-path issue ops/sec for one op kind."""
    for scalar_name, _, scalar_fn, block_fn in _PAIRS:
        if scalar_name.startswith(kind):
            scalar_issue, _ = _best(scalar_fn, n, repeats)
            block_issue, _ = _best(block_fn, n, repeats)
            return scalar_issue / block_issue
    raise ValueError(f"unknown op kind {kind!r}")


# --- serial vs parallel sweep over a Table 1 grid ---------------------------

def run_qsm_parity_point(n: int, g: float) -> Dict[str, object]:
    """One Table 1a grid point: deterministic parity on the QSM (picklable)."""
    bound_entry = bounds_for(table="1a", problem="Parity", variant="deterministic")[0]
    m = QSM(QSMParams(g=g))
    bits = gen_bits(n, seed=n)
    r = parity_blocks(m, bits)
    return {
        "measured": r.time,
        "correct": verify_parity(bits, r.value),
        "bound": bound_entry.fn(n, g),
        "phases": r.phases,
    }


def sweep_grid() -> Dict[str, List]:
    return {"n": ns_from_env([2**8, 2**10, 2**12]), "g": [2.0, 8.0]}


def compare_sweeps(jobs: int = None) -> Dict[str, object]:
    """Run the grid serially and in parallel; report timings and equality."""
    grid = sweep_grid()
    jobs = default_jobs() if jobs is None else jobs
    t0 = time.perf_counter()
    serial = sweep(grid, run_qsm_parity_point)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = parallel_sweep(grid, run_qsm_parity_point, jobs=jobs)
    t_parallel = time.perf_counter() - t0
    return {
        "serial": serial,
        "parallel": parallel,
        "t_serial": t_serial,
        "t_parallel": t_parallel,
        "jobs": jobs,
        "identical": serial == parallel,
    }


# --- point throughput: one write phase and one read phase ------------------

#: Processor count for the point timings.  Fewer procs than the issue-path
#: micro-benchmarks => larger per-proc blocks (2000 cells at n=10^5).
POINT_PROCS = 50


def time_point(path: str = "scalar", n: int = N_OPS, procs: int = POINT_PROCS) -> float:
    """End-to-end seconds for one write phase + one read phase of ``n`` cells.

    Unlike the issue-path micro-benchmarks above, this includes commit and
    read resolution — it is the wall cost of executing one "point" of
    simulated work.  ``path="scalar"`` issues one API call per cell;
    ``path="block"`` issues one bulk call per processor chunk.
    """
    m = QSM(QSMParams(g=2), seed=0)
    chunks = _chunks(n, procs)
    # Payloads are prepared outside the clock: the measurement is the
    # engine executing the phase, not the harness fabricating test data.
    payloads = [list(c) for c in chunks]
    t0 = time.perf_counter()
    with m.phase() as ph:
        if path == "scalar":
            write = ph.write
            for proc, chunk in enumerate(chunks):
                for addr in chunk:
                    write(proc, addr, addr)
        else:
            for proc, chunk in enumerate(chunks):
                ph.write_cols(proc, chunk, payloads[proc])
    handles: List = []
    with m.phase() as ph:
        if path == "scalar":
            read = ph.read
            for proc, chunk in enumerate(chunks):
                for addr in chunk:
                    handles.append(read(proc, addr))
        else:
            for proc, chunk in enumerate(chunks):
                handles.append(ph.read_block(proc, chunk))
    # Consume every delivered value so resolution cost is inside the clock.
    acc = 0
    if path == "scalar":
        for h in handles:
            acc += h.value
    else:
        for h in handles:
            acc += sum(h.values)
    elapsed = time.perf_counter() - t0
    assert acc == n * (n - 1) // 2, "engine delivered wrong values"
    return elapsed


#: The point timings' paths, named as in ``BENCH_phase_engine.json``.
POINT_PATHS = {"reference-scalar": "scalar", "reference-block": "block"}


def engine_point_rows(n: int = N_OPS, repeats: int = 3) -> List[PerfRow]:
    """Scalar-path and block-path point timings."""
    rows = []
    for name, path in POINT_PATHS.items():
        seconds = min(time_point(path, n) for _ in range(repeats))
        rows.append(PerfRow(f"point/{name}", n, 2 * n, seconds))
    return rows


# --- Table 1 at scale: the parity fan-in point -------------------------------

FANIN_BLOCK = 32


def _fanin_parity(machine: QSM, bits, b: int = FANIN_BLOCK) -> int:
    """Parity by b-ary fan-in using only block reads — O(g·b·log_b n) time.

    Each level: processor ``j`` block-reads its group of ``<= b`` cells
    (contention 1, ``m_rw = b``), then scalar-writes the group parity
    (``m_rw = 1``).  Per-op issue cost is O(n/b) Python calls per level.
    """
    machine.load(bits, base=0)
    base, size = 0, len(bits)
    out = size
    while size > 1:
        groups = -(-size // b)
        with machine.phase() as ph:
            handles = [
                ph.read_block(j, range(base + j * b, base + min((j + 1) * b, size)))
                for j in range(groups)
            ]
        with machine.phase() as ph:
            for j, h in enumerate(handles):
                ph.write(j, out + j, sum(h.values) & 1)
        base, size = out, groups
        out = base + groups
    return machine.peek(base)


def run_parity_fanin_point(n: int, g: float) -> Dict[str, object]:
    """One large-n Table 1a parity point (picklable)."""
    bound_entry = bounds_for(table="1a", problem="Parity", variant="deterministic")[0]
    m = QSM(QSMParams(g=g))
    bits = gen_bits(n, seed=n)
    value = _fanin_parity(m, bits)
    return {
        "measured": m.time,
        "correct": verify_parity(bits, value),
        "bound": bound_entry.fn(n, g),
        "phases": m.phase_count,
    }


def table1_ns() -> List[int]:
    """Large-n sweep sizes: {10^4, 10^5} by default, env-extendable to 10^6.

    A dedicated env var (not ``REPRO_BENCH_NS``) so CI smoke grids don't
    silently change the point keys ``bench check`` diffs against the
    committed baseline.
    """
    return ns_from_env([10**4, 10**5], env="REPRO_PHASE_ENGINE_NS")


def table1_sweep(ns=None, jobs: int = None) -> List:
    """The parity fan-in grid."""
    return parallel_sweep(
        {"n": ns if ns is not None else table1_ns(), "g": [2.0]},
        run_parity_fanin_point,
        jobs=jobs,
    )


# --- the committed baseline payload (BENCH_phase_engine.json) ----------------

def collect(jobs: int = None) -> Dict[str, object]:
    """Measure the point timings and the large-n Table 1 sweep for ``bench check``.

    Schema (see ``repro.obs.regress``): per-path wall numbers live under
    ``engines.<name>.seconds`` / ``.throughput`` (informational — never
    gate), and the large-n parity points under ``table1`` (simulated
    costs — deterministic, gated at 1%).  The ``table1`` keys keep the
    ``engine=reference`` prefix of the committed baseline's keys.
    """
    jobs = default_jobs() if jobs is None else jobs
    engines: Dict[str, Dict[str, float]] = {}
    for name, path in POINT_PATHS.items():
        seconds = min(time_point(path) for _ in range(3))
        engines[name] = {"seconds": seconds, "throughput": 2 * N_OPS / seconds}
    table1: Dict[str, Dict[str, object]] = {}
    for p in table1_sweep(jobs=jobs):
        key = "engine=reference,g={g:g},n={n}".format(**p.params)
        table1[key] = {
            "measured": p.measured,
            "correct": p.correct,
            "bound": p.bound,
        }
    return {"n": N_OPS, "engines": engines, "table1": table1}


def main() -> None:
    rows = engine_rows()
    for kind in ("read", "write", "send"):
        print_perf_rows(
            f"Phase engine: {kind} path, scalar vs block (n={N_OPS})",
            [r for r in rows if r.path.startswith(kind)],
            baseline=f"{kind}/scalar",
        )
        print()
    cmp = compare_sweeps()
    print(
        f"Table 1a parity grid ({len(cmp['serial'])} points): "
        f"serial sweep {cmp['t_serial']:.2f}s, "
        f"parallel_sweep --jobs {cmp['jobs']} {cmp['t_parallel']:.2f}s, "
        f"results identical: {cmp['identical']}"
    )
    if not cmp["identical"]:
        raise SystemExit("parallel_sweep diverged from serial sweep")
    print()
    print_perf_rows(
        f"End-to-end point throughput (n={N_OPS})",
        engine_point_rows(),
        baseline="point/reference-scalar",
    )
    print()
    t0 = time.perf_counter()
    points = table1_sweep()
    print(
        f"Table 1a parity fan-in at scale (n in {table1_ns()}): "
        f"{len(points)} points in {time.perf_counter() - t0:.2f}s, "
        f"all correct: {all(p.correct for p in points)}"
    )
    for p in points:
        print(
            f"  n={p.params['n']:>8} "
            f"measured={p.measured:.1f} bound={p.bound:.1f} ratio={p.ratio:.2f}"
        )


# --- pytest-benchmark targets ------------------------------------------------

def bench_block_read_speedup(benchmark):
    speedup = benchmark(lambda: block_speedup("read"))
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 2.0, f"block reads only {speedup:.2f}x scalar"


def bench_block_write_speedup(benchmark):
    speedup = benchmark(lambda: block_speedup("write"))
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 2.0, f"block writes only {speedup:.2f}x scalar"


def bench_block_send_speedup(benchmark):
    speedup = benchmark(lambda: block_speedup("send"))
    benchmark.extra_info["speedup"] = speedup
    # Lower floor than the shared-memory paths: a BSP send is already cheap
    # (no conflict checks), so there is less scalar overhead to amortise.
    assert speedup >= 1.5, f"block sends only {speedup:.2f}x scalar"


def bench_parallel_sweep_is_drop_in(benchmark):
    cmp = benchmark(lambda: compare_sweeps(jobs=2))
    assert cmp["identical"]
    assert all(p.correct for p in cmp["parallel"])


def bench_table1_sweep_reaches_1e5(benchmark):
    # The scale claim: a Table 1 parity sweep completes at n >= 10^5, correct.
    points = benchmark.pedantic(
        lambda: table1_sweep(ns=[10**5], jobs=1), rounds=1, iterations=1
    )
    assert all(p.correct for p in points)


if __name__ == "__main__":
    main()
