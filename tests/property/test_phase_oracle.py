"""Shared-memory phase records and charges against the paper's definitions.

An oracle computes, from the raw ``(proc, kind, x)`` events a phase
stands for — ``("read", addr)``, ``("write", addr)`` or ``("local",
units)`` — with no handles and no fast paths (PAPER.md §2, Section 2.1):

* ``m_op``: the most local operations at one processor;
* ``m_rw``: ``max(1, r_i, w_i)`` over processors, every request counted;
* each cell's queue: the number of *distinct processors* accessing it;
* ``kappa``: the longest queue, at least 1; and the model's charge.

Hypothesis drives each machine on both engines through random mixes of
scalar, block and columnar ops, counted shapes included (distinct
processors sharing cells, one common value), and compares every record
and charge with the oracle.  Engine == engine and bulk == scalar loop
share the record aggregates, the cost formulas and the queue builders;
a bug there passes them and fails here.
"""

from collections import Counter, defaultdict
from math import ceil

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PRAM, QSM, QSMGD, SQSM, ConcurrencyViolation, MemoryConflictError,
    PRAMParams, QSMParams, SQSMParams,
)
from repro.core.qsm_gd import QSMGDParams
from repro.models import PEM, PEMParams


def _oracle(events):
    """``(m_op, m_rw, read_queue, write_queue, kappa)`` of one phase."""
    ops, reads, writes = Counter(), Counter(), Counter()
    readers, writers = defaultdict(set), defaultdict(set)
    for proc, kind, x in events:
        if kind == "local":
            ops[proc] += x
        elif kind == "read":
            reads[proc] += 1
            readers[x].add(proc)
        else:
            writes[proc] += 1
            writers[x].add(proc)
    read_queue = {a: len(ps) for a, ps in readers.items()}
    write_queue = {a: len(ps) for a, ps in writers.items()}
    m_op = max(ops.values(), default=0)
    m_rw = max([1, *reads.values(), *writes.values()])
    kappa = max([1, *read_queue.values(), *write_queue.values()])
    return m_op, m_rw, read_queue, write_queue, kappa


def _pram_charge(variant, events, read_queue, write_queue):
    """1 per legal step; ``None`` where the variant forbids the step."""
    accesses = Counter(p for p, kind, _ in events if kind != "local")
    if max(accesses.values(), default=0) > 1:
        return None
    if variant == "EREW" and max(read_queue.values(), default=1) > 1:
        return None
    if variant != "CRCW" and max(write_queue.values(), default=1) > 1:
        return None
    return 1.0


# name -> (machine factory, charge(m_op, m_rw, write-queue kappa, kappa))
MODELS = {
    "qsm": (lambda e: QSM(QSMParams(g=3), seed=1, engine=e),
            lambda op, rw, wk, k: max(op, 3 * rw, k)),
    "qsm-unit-reads": (
        lambda e: QSM(QSMParams(g=2, unit_time_concurrent_reads=True), seed=1, engine=e),
        lambda op, rw, wk, k: max(op, 2 * rw, wk)),
    "sqsm": (lambda e: SQSM(SQSMParams(g=2), seed=1, engine=e),
             lambda op, rw, wk, k: max(op, 2 * rw, 2 * k)),
    "qsm-gd": (lambda e: QSMGD(QSMGDParams(g=2, d=3), seed=1, engine=e),
               lambda op, rw, wk, k: max(op, 2 * rw, 3 * k)),
    "pem": (lambda e: PEM(PEMParams(M=8, B=2), seed=1, engine=e),
            lambda op, rw, wk, k: max(ceil(rw / 2), k)),
}
PRAMS = ["EREW", "CREW", "CRCW"]

PROC = st.integers(0, 7)
CELL = st.integers(0, 9)
COLUMN = st.lists(st.tuples(PROC, CELL), max_size=6)
DISTINCT = st.builds(  # distinct processors sharing cells: counted columns
    lambda perm, cells: list(zip(perm, cells)),
    st.permutations(range(8)), st.lists(st.integers(0, 3), min_size=2, max_size=8),
)
VALUES = st.one_of(st.just(None), st.integers(-3, 3))  # None: mixed values

LOCALS = st.one_of(
    st.tuples(st.just("local"), st.tuples(PROC, st.integers(0, 9))),
    st.tuples(st.just("local_each"), st.lists(st.tuples(PROC, st.integers(0, 4)), max_size=6)),
)
READS = st.one_of(
    st.tuples(st.just("read"), st.tuples(PROC, CELL)),
    st.tuples(st.just("read_block"), st.tuples(PROC, st.lists(CELL, max_size=6))),
    st.tuples(st.just("read_each"), st.one_of(COLUMN, DISTINCT)),
    LOCALS,
)
WRITES = st.one_of(
    st.tuples(st.just("write"), st.tuples(PROC, CELL)),
    st.tuples(st.just("write_block"), st.tuples(PROC, st.lists(CELL, max_size=6))),
    st.tuples(st.just("write_each"), st.tuples(st.one_of(COLUMN, DISTINCT), VALUES)),
    LOCALS,
)
COUNTED = st.one_of(  # a counted column first, then ops on its cells
    st.tuples(st.tuples(st.just("read_each"), DISTINCT), st.lists(READS, max_size=4)),
    st.tuples(
        st.tuples(st.just("write_each"), st.tuples(DISTINCT, st.integers(-3, 3))),
        st.lists(WRITES, max_size=4),
    ),
).map(lambda t: [t[0], *t[1]])
# Read phases, write phases, and phases mixing both (which may conflict).
PHASES = st.lists(
    st.one_of(st.lists(READS, max_size=5), st.lists(WRITES, max_size=5),
              st.lists(READS | WRITES, max_size=5), COUNTED),
    min_size=1, max_size=3,
)


def _op(op, args):
    """``(call args, events)`` of one generated op."""
    if op in ("read", "write", "local"):
        proc, x = args
        kind = "local" if op == "local" else op
        return (args if op != "write" else (proc, x, proc)), [(proc, kind, x)]
    if op == "local_each":
        return ([p for p, _ in args], [u for _, u in args]), [(p, "local", u) for p, u in args]
    if op == "read_block":
        proc, addrs = args
        return (proc, addrs), [(proc, "read", a) for a in addrs]
    if op == "write_block":
        proc, addrs = args
        items = [(a, i) for i, a in enumerate(addrs)]
        return (proc, items), [(proc, "write", a) for a in addrs]
    if op == "read_each":
        return ([p for p, _ in args], [a for _, a in args]), [(p, "read", a) for p, a in args]
    pairs, value = args
    values = [p if value is None else value for p, _ in pairs]
    call = ([p for p, _ in pairs], [a for _, a in pairs], values)
    return call, [(p, "write", a) for p, a in pairs]


def _check(machine, phases, charge):
    for program in phases:
        calls = [(op, *_op(op, args)) for op, args in program]
        events = [ev for _, _, evs in calls for ev in evs]
        m_op, m_rw, rq, wq, kappa = _oracle(events)
        expected = charge(events, m_op, m_rw, rq, wq, kappa)
        conflict = not rq.keys().isdisjoint(wq)
        try:
            with machine.phase() as ph:
                for op, call, _ in calls:
                    getattr(ph, op)(*call)
        except MemoryConflictError:
            assert conflict  # only a cell both read and written raises it
            continue
        except ConcurrencyViolation:
            assert not conflict and expected is None
            continue
        assert not conflict
        record, cost = machine.history[-1], machine.phase_costs[-1]
        assert (record.m_op, record.m_rw, record.kappa) == (m_op, m_rw, kappa)
        assert dict(record.read_queue) == rq and dict(record.write_queue) == wq
        assert cost == expected


@pytest.mark.parametrize("engine", ["reference", "vector"])
class TestPhasesMatchTheOracle:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @given(phases=PHASES)
    @settings(max_examples=80, deadline=None)
    def test_queuing_models(self, engine, model, phases):
        make, formula = MODELS[model]
        _check(make(engine), phases, lambda events, op, rw, rq, wq, k: formula(
            op, rw, max([1, *wq.values()]), k
        ))

    @pytest.mark.parametrize("variant", PRAMS)
    @given(phases=PHASES)
    @settings(max_examples=60, deadline=None)
    def test_pram(self, engine, variant, phases):
        machine = PRAM(PRAMParams(variant, "arbitrary"), seed=1, engine=engine)
        _check(machine, phases, lambda events, op, rw, rq, wq, k: _pram_charge(
            variant, events, rq, wq
        ))
