"""Bulk operations are drop-in for scalar loops — property-checked.

The block ops (``read_block`` / ``write_block`` / ``write_cols`` /
``send_block``) and the columnar ops (``read_each`` / ``write_each`` /
``local_each``) promise *semantic identity* with the per-operation loops:
same PhaseRecord aggregates, same phase costs, same final memory, same
delivered values, same traces — on every machine, for any access pattern,
including colliding and duplicate addresses and repeated processors — and
on bad entries the same first error at the same pair.  The machines here
are seeded identically, so even arbitrary-winner write resolution must
agree between the two executions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core import (
    BSP,
    GSM,
    QSM,
    QSMGD,
    SQSM,
    BSPParams,
    MemoryConflictError,
    PhaseClosedError,
)
from repro.core.engine_vector import have_numpy

# Per-processor write blocks over a small address range (forces collisions
# and duplicates) and per-processor read address lists.
write_programs = st.lists(
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(-5, 5)),
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)
read_programs = st.lists(
    st.lists(st.integers(0, 11), max_size=6),
    min_size=1,
    max_size=4,
)

MACHINES = [
    pytest.param(lambda eng=None: QSM(seed=7, record_trace=True, engine=eng), id="qsm"),
    pytest.param(lambda eng=None: SQSM(seed=7, record_trace=True, engine=eng), id="sqsm"),
    pytest.param(lambda eng=None: QSMGD(seed=7, record_trace=True, engine=eng), id="qsm-gd"),
    pytest.param(lambda eng=None: GSM(seed=7, record_trace=True, engine=eng), id="gsm"),
]

ENGINES = [
    "reference",
    pytest.param(
        "vector",
        marks=pytest.mark.skipif(not have_numpy(), reason="numpy not installed"),
    ),
]

# Each bulk op next to the scalar loop its docstring says it replaces.
SCALAR_LOOPS = {
    "read_block": lambda ph, p, addrs: [ph.read(p, a) for a in addrs],
    "write_block": lambda ph, p, pairs: [ph.write(p, a, v) for a, v in pairs],
    "write_cols": lambda ph, p, addrs, vals: [
        ph.write(p, a, v) for a, v in zip(addrs, vals)
    ],
    "read_each": lambda ph, procs, addrs: [
        ph.read(p, a) for p, a in zip(procs, addrs)
    ],
    "write_each": lambda ph, procs, addrs, vals: [
        ph.write(p, a, v) for p, a, v in zip(procs, addrs, vals)
    ],
    "local_each": lambda ph, procs, ops: [ph.local(p, o) for p, o in zip(procs, ops)],
}


class TestSharedMemoryEquivalence:
    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_programs, reads=read_programs)
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_block_executions_identical(self, make, writes, reads):
        scalar, block = make(), make()

        with scalar.phase() as ph:
            for proc, items in enumerate(writes):
                for addr, value in items:
                    ph.write(proc, addr, value)
        with block.phase() as ph:
            for proc, items in enumerate(writes):
                ph.write_block(proc, items)

        with scalar.phase() as ph:
            scalar_handles = [
                [ph.read(proc, a) for a in addrs]
                for proc, addrs in enumerate(reads)
            ]
        with block.phase() as ph:
            block_handles = [
                ph.read_block(proc, addrs) for proc, addrs in enumerate(reads)
            ]

        assert scalar.history == block.history
        assert scalar.phase_costs == block.phase_costs
        assert scalar._memory == block._memory
        assert scalar.traces == block.traces
        assert [
            [h.value for h in hs] for hs in scalar_handles
        ] == [bh.values for bh in block_handles]


# Mixed programs: columnar steps (repeated processors and addresses within
# one call) between scalar and block steps, in one phase.
PAIRS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 11)), max_size=6)
CELL = st.integers(0, 11)
PROC = st.integers(0, 3)
VALUE = st.integers(-5, 5)
mixed_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.tuples(PROC, CELL, VALUE)),
        st.tuples(
            st.just("write_block"),
            st.tuples(PROC, st.lists(st.tuples(CELL, VALUE), max_size=4)),
        ),
        st.builds(
            lambda pairs, v: (
                "write_each",
                ([p for p, _ in pairs], [a for _, a in pairs],
                 [v + i for i in range(len(pairs))]),
            ),
            PAIRS,
            VALUE,
        ),
        st.tuples(st.just("local"), st.tuples(PROC, st.integers(0, 3))),
        st.builds(
            lambda procs: ("local_each", (procs, [1 + p for p in procs])),
            st.lists(PROC, max_size=6),
        ),
    ),
    max_size=6,
)
mixed_reads = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.tuples(PROC, CELL)),
        st.tuples(st.just("read_block"), st.tuples(PROC, st.lists(CELL, max_size=4))),
        st.builds(
            lambda pairs: ("read_each", ([p for p, _ in pairs], [a for _, a in pairs])),
            PAIRS,
        ),
    ),
    max_size=6,
)


def _run_steps(machine, steps, bulk):
    """One phase of ``steps``; bulk ops run as-is or as their scalar loops.
    Returns the read handles, flattened to scalar handles or bulk ones."""
    handles = []
    with machine.phase() as ph:
        for method, args in steps:
            if bulk or method not in SCALAR_LOOPS:
                out = getattr(ph, method)(*args)
            else:
                out = SCALAR_LOOPS[method](ph, *args)
            if method.startswith("read"):
                handles.extend(out if type(out) is list else [out])
    return handles


def _values(handles):
    out = []
    for h in handles:
        out.extend(h.values if hasattr(h, "values") else [h.value])
    return out


class TestColumnarEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=mixed_steps, reads=mixed_reads)
    @settings(max_examples=60, deadline=None)
    def test_mixed_programs_match_their_scalar_loops(self, make, engine, writes, reads):
        scalar, bulk = make(engine), make(engine)
        values = []
        for machine, is_bulk in ((scalar, False), (bulk, True)):
            _run_steps(machine, writes, is_bulk)
            values.append(_values(_run_steps(machine, reads, is_bulk)))
        assert scalar.history == bulk.history
        assert scalar.phase_costs == bulk.phase_costs
        assert scalar._memory == bulk._memory
        assert scalar.traces == bulk.traces
        assert values[0] == values[1]


class TestBSPEquivalence:
    @given(
        program=st.lists(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(-5, 5)),
                max_size=6,
            ),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_block_sends_identical(self, program):
        scalar = BSP(4, BSPParams(g=2, L=2))
        block = BSP(4, BSPParams(g=2, L=2))

        with scalar.superstep() as ss:
            for src, msgs in enumerate(program):
                for dst, payload in msgs:
                    ss.send(src, dst, payload)
        with block.superstep() as ss:
            for src, msgs in enumerate(program):
                ss.send_block(src, msgs)

        assert scalar.history == block.history
        assert scalar.step_costs == block.step_costs
        assert all(scalar.inbox(i) == block.inbox(i) for i in range(4))



# -- bad entries: a bulk op raises exactly what its scalar loop raises -------
#
# Every bulk op is specified by the scalar loop it replaces, errors
# included: the same exception type and message at the same pair, with
# the pairs before it already issued.  Programs here carry negative,
# non-int and out-of-range processors and addresses, cells that conflict
# with an earlier op of the phase, and sealed same-phase handles as write
# values.  The error is caught inside the phase, which then commits, so
# the partial effects the loop left behind are compared too.

SEALED = "<sealed handle>"  # stands for a same-phase read handle
BAD_IDS = st.one_of(
    st.integers(-2, 13), st.sampled_from(["x", 1.5, None, True, 2**70])
)
IDS = st.one_of(st.integers(0, 11), BAD_IDS)

BOUNDED = [
    pytest.param(
        lambda eng: QSM(num_processors=4, memory_size=12, seed=7,
                        record_trace=True, engine=eng),
        id="qsm",
    ),
    pytest.param(
        lambda eng: GSM(num_processors=4, memory_size=12, seed=7,
                        record_trace=True, engine=eng),
        id="gsm",
    ),
]

@st.composite
def bad_programs(draw):
    """``(setup, method, columns)``: one setup op, then one bulk call."""
    method = draw(st.sampled_from(sorted(SCALAR_LOOPS)))
    k = draw(st.integers(1, 5))
    column = lambda elems: draw(st.lists(elems, min_size=k, max_size=k))
    columns = {
        "proc": draw(st.integers(0, 3)),
        "procs": column(IDS),
        "addrs": column(IDS),
        "vals": column(st.one_of(st.integers(-5, 5), st.just(SEALED))),
        "ops": column(st.one_of(st.integers(-1, 3), st.just("x"))),
    }
    # The setup touches one cell, so the bulk call can conflict with it.
    setup = (draw(st.sampled_from(["read", "write"])), draw(st.integers(0, 11)))
    return setup, method, columns


def _bulk_args(method, cols, sealed):
    vals = [sealed if v == SEALED else v for v in cols["vals"]]
    return {
        "read_block": (cols["proc"], cols["addrs"]),
        "write_block": (cols["proc"], list(zip(cols["addrs"], vals))),
        "write_cols": (cols["proc"], cols["addrs"], vals),
        "read_each": (cols["procs"], cols["addrs"]),
        "write_each": (cols["procs"], cols["addrs"], vals),
        "local_each": (cols["procs"], cols["ops"]),
    }[method]


def _run_bad(machine, program, bulk):
    """Run ``program`` in one phase; return (error, read values)."""
    (kind, cell), method, cols = program
    error = values = None
    with machine.phase() as ph:
        if kind == "write":
            ph.write(0, cell, 9)
            cell = (cell + 1) % 12
        sealed = ph.read(0, cell)
        args = _bulk_args(method, cols, sealed)
        try:
            if bulk:
                handle = getattr(ph, method)(*args)
            else:
                handle = SCALAR_LOOPS[method](ph, *args)
        except (TypeError, ValueError, MemoryConflictError, PhaseClosedError) as exc:
            error = (type(exc), str(exc))
            handle = None
    if handle is not None and method.startswith("read"):
        values = [h.value for h in handle] if type(handle) is list else handle.values
    return error, values


class TestBadEntriesRaiseLikeTheLoop:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", BOUNDED)
    @given(program=bad_programs())
    @settings(max_examples=150, deadline=None)
    def test_bulk_op_raises_the_scalar_loops_error(self, make, engine, program):
        scalar, bulk = make(engine), make(engine)
        assert _run_bad(scalar, program, bulk=False) == _run_bad(
            bulk, program, bulk=True
        )
        # The phase committed whatever the loop issued before its error.
        assert scalar.history == bulk.history
        assert scalar._memory == bulk._memory
        assert scalar.traces == bulk.traces

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_bad_pair_decides_the_error(self, engine):
        # A negative address before a non-int one: the loop stops at the
        # negative address, so the block op must too.
        m = QSM(memory_size=12, engine=engine)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            with m.phase() as ph:
                ph.write_block(0, [(-1, 1), ("x", 2)])
        # A conflicting first address before an out-of-range one.
        m = QSM(memory_size=12, engine=engine)
        with pytest.raises(MemoryConflictError, match="cell 3 is being written"):
            with m.phase() as ph:
                ph.write(1, 3, 0)
                ph.read_block(0, [3, 99])
        m = QSM(memory_size=12, engine=engine)
        with pytest.raises(MemoryConflictError, match="cell 3 is being read"):
            with m.phase() as ph:
                ph.read(1, 3)
                ph.write_block(0, [(3, 1), (99, 2)])

    @pytest.mark.parametrize("engine", ENGINES)
    @given(
        program=st.lists(
            st.tuples(BAD_IDS | st.integers(0, 3), st.integers(-5, 5)),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_send_block_raises_the_scalar_loops_error(self, engine, program):
        def run(bulk):
            m = BSP(4, BSPParams(g=2, L=2), engine=engine)
            error = None
            with m.superstep() as ss:
                try:
                    if bulk:
                        ss.send_block(0, program)
                    else:
                        for dst, payload in program:
                            ss.send(0, dst, payload)
                except (TypeError, ValueError) as exc:
                    error = (type(exc), str(exc))
            return error, m.history, [m.inbox(i) for i in range(4)]

        assert run(bulk=False) == run(bulk=True)
