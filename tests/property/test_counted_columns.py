"""Counted columns are drop-in for the per-cell entries they stand for.

A ``read_each`` / ``write_each`` whose processors are distinct, on cells
new to the phase, keeps its columns and one ``Counter`` instead of reader
sets and writer lists (``repro.core.machine.Phase``); a common-value write
column then lands through the single-writer path after the winner draw.
The machines here have no winner policy and record no trace, so the
counted write path is live.  Programs put such columns first in a phase
and follow them with scalar, block and columnar ops on the same cells,
which expand them.  Every observable must match the scalar loop and the
vector engine: records, charges, memory, read values, the generator's
state, and the winners of a later collided phase.
"""

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PRAM, QSM, QSMGD, SQSM, ConcurrencyViolation, PRAMParams
from repro.core.machine import Collided
from repro.faults.winners import FirstWriterWins
from repro.models import PEM, PEMParams

MACHINES = [
    pytest.param(lambda eng: QSM(seed=7, engine=eng), id="qsm"),
    pytest.param(lambda eng: SQSM(seed=7, engine=eng), id="sqsm"),
    pytest.param(lambda eng: QSMGD(seed=7, engine=eng), id="qsm-gd"),
    pytest.param(lambda eng: PEM(PEMParams(M=16, B=4), seed=7, engine=eng), id="pem"),
    pytest.param(
        lambda eng: PRAM(PRAMParams("CRCW", "arbitrary"), seed=7, engine=eng),
        id="crcw-arbitrary",
    ),
]

CELL = st.integers(0, 5)
PROC = st.integers(0, 7)
VALUE = st.integers(-3, 3)


@st.composite
def distinct_column(draw):
    """Distinct processors on a few cells (repeats likely): the counted shape."""
    k = draw(st.integers(2, 6))
    procs = draw(st.permutations(range(8)))[:k]
    return list(procs), draw(st.lists(CELL, min_size=k, max_size=k))


counted_write = st.builds(
    lambda cols, v: ("write_each", cols + ([v] * len(cols[0]),)), distinct_column(), VALUE
)
counted_read = st.builds(lambda cols: ("read_each", cols), distinct_column())
mixed_write_each = st.builds(
    lambda cols, v: ("write_each", cols + ([v + i for i in range(len(cols[0]))],)),
    distinct_column(),
    VALUE,
)
write_followups = st.one_of(
    counted_write,
    mixed_write_each,
    st.tuples(st.just("write"), st.tuples(PROC, CELL, VALUE)),
    st.tuples(
        st.just("write_block"), st.tuples(PROC, st.lists(st.tuples(CELL, VALUE), max_size=4))
    ),
    st.builds(
        lambda pairs, v: (
            "write_each", ([p for p, _ in pairs], [a for _, a in pairs], [v] * len(pairs))
        ),
        st.lists(st.tuples(PROC, CELL), max_size=5),
        VALUE,
    ),
)
read_followups = st.one_of(
    counted_read,
    st.tuples(st.just("read"), st.tuples(PROC, CELL)),
    st.tuples(st.just("read_block"), st.tuples(PROC, st.lists(CELL, max_size=4))),
    st.builds(
        lambda pairs: ("read_each", ([p for p, _ in pairs], [a for _, a in pairs])),
        st.lists(st.tuples(PROC, CELL), max_size=5),
    ),
)
write_phases = st.tuples(counted_write, st.lists(write_followups, max_size=4)).map(
    lambda t: [t[0], *t[1]]
)
read_phases = st.tuples(counted_read, st.lists(read_followups, max_size=4)).map(
    lambda t: [t[0], *t[1]]
)
# A later collided phase of mixed values: its winners show the generator.
LATER = [("write_each", ([0, 1, 2, 3, 4, 5], [0, 0, 1, 1, 1, 2], [10, 11, 12, 13, 14, 15]))]

SCALAR_LOOPS = {
    "read_block": lambda ph, p, addrs: [ph.read(p, a) for a in addrs],
    "write_block": lambda ph, p, pairs: [ph.write(p, a, v) for a, v in pairs],
    "read_each": lambda ph, procs, addrs: [ph.read(p, a) for p, a in zip(procs, addrs)],
    "write_each": lambda ph, procs, addrs, vals: [
        ph.write(p, a, v) for p, a, v in zip(procs, addrs, vals)
    ],
}


def _run(machine, phases, bulk=True):
    """Every observable of ``phases`` replayed on ``machine``."""
    values = []
    for steps in phases:
        try:
            with machine.phase() as ph:
                handles = []
                for method, args in steps:
                    if bulk or method not in SCALAR_LOOPS:
                        out = getattr(ph, method)(*args)
                    else:
                        out = SCALAR_LOOPS[method](ph, *args)
                    if method.startswith("read"):
                        handles.extend(out if type(out) is list else [out])
        except ConcurrencyViolation as exc:
            values.append(str(exc))
            continue
        for h in handles:
            values.extend(h.values if hasattr(h, "values") else [h.value])
        values.append(machine._rng.bit_generator.state)
    return values, machine.history, machine.phase_costs, dict(machine._memory)


class TestCountedColumns:
    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=60, deadline=None)
    def test_columnar_ops_match_their_scalar_loops(self, make, engine, writes, reads):
        phases = [writes, reads, LATER]
        assert _run(make(engine), phases) == _run(make(engine), phases, bulk=False)

    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=60, deadline=None)
    def test_engines_identical(self, make, writes, reads):
        phases = [writes, reads, LATER]
        assert _run(make("reference"), phases) == _run(make("vector"), phases)


def _column_phase(machine, values, cells=(3, 3, 4)):
    """Write ``values`` from distinct processors; return whether the
    column was counted and the entry type of its first cell."""
    with machine.phase() as ph:
        ph.write_each(range(len(values)), cells[: len(values)], values)
        return bool(ph._counted_writes), type(ph._writes[cells[0]])


class TestWhichColumnsAreCounted:
    """The reference engine's phase internals: which columns are counted."""

    def test_common_int_column_is_counted_and_charged_by_count(self):
        machine = QSM(seed=3, engine="reference")
        with machine.phase() as ph:
            ph.write_each([4, 5, 6, 7], [9, 8, 9, 9], [1, 1, 1, 1])
            assert len(ph._counted_writes) == 1
            assert ph._writes == {9: 1, 8: 1}
            handle = ph.read_each([0, 1, 2], [2, 3, 2])
            assert len(ph._counted_reads) == 1
        assert machine.history[0].write_queue == {9: 3, 8: 1}
        assert machine.history[0].read_queue == {2: 2, 3: 1}
        assert machine.history[0].kappa == 3
        assert machine.peek(9) == 1 and handle.values == [None, None, None]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: QSM(seed=3, record_trace=True, engine="reference"),
            lambda: QSM(seed=3, winner_policy=FirstWriterWins(), engine="reference"),
            lambda: PRAM(PRAMParams("CRCW", "common"), seed=3, engine="reference"),
            lambda: PRAM(PRAMParams("CRCW", "priority"), seed=3, engine="reference"),
        ],
        ids=["trace", "policy", "crcw-common", "crcw-priority"],
    )
    def test_writes_stay_entries_where_the_commit_needs_them(self, make):
        machine = make()
        assert _column_phase(machine, [1, 1, 1]) == (False, Collided)
        assert machine.peek(3) == 1 and machine.history[0].write_queue == {3: 2, 4: 1}

    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0], [-0.0, 0.0], [1, True], [True, 1], [float("nan"), 1.0]],
        ids=["zero-negzero", "negzero-zero", "int-bool", "bool-int", "nan"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_inexact_common_values_keep_entries(self, values, seed):
        bulk, scalar = (QSM(seed=seed, engine="reference") for _ in range(2))
        assert _column_phase(bulk, values) == (False, Collided)
        with scalar.phase() as sph:
            for p, v in enumerate(values):
                sph.write(p, 3, v)
        winner, expected = bulk.peek(3), scalar.peek(3)
        # repr tells 0.0 from -0.0 and True from 1.
        assert type(winner) is type(expected) and repr(winner) == repr(expected)
