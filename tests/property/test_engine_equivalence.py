"""engine="reference" == engine="vector" — bit-equality, property-checked.

The vector engine promises to be a drop-in for the reference engine: same
``PhaseRecord`` / ``SuperstepRecord`` streams, same phase costs and cost
records, same final memory, same delivered read values and inboxes, same
traces — and the same winner-policy RNG draws, so even arbitrary-winner
collisions resolve identically on seeded machines.  Randomized programs —
lists of ``(method, args)`` calls on an open phase or superstep (scalar and
block reads/writes, local charges, collisions, duplicates, conflicts,
faults) — are replayed through both engines and every observable compared.
"""

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BSP,
    GSM,
    PRAM,
    QSM,
    QSMGD,
    SQSM,
    BSPParams,
    ConcurrencyViolation,
    MemoryConflictError,
    PRAMParams,
)
from repro.faults.plan import random_fault_plan
from repro.faults.winners import FirstWriterWins, LastWriterWins, SeededWinners
from repro.models import MPC, PEM, MPCParams, PEMParams

ADDRS = st.integers(0, 15)
VALUES = st.integers(-5, 5)
PROCS = st.integers(0, 3)
# Processor or address entries that may be invalid on a 4-processor,
# 16-cell machine (see TestColumnarOpsBitEquality).
BAD_IDS = st.one_of(st.integers(-2, 17), st.sampled_from(["x", None, True]))


def _block_addrs():
    # Mix of explicit address lists and contiguous ranges: ranges take the
    # vector engine's interval fast paths, lists its np.unique paths.
    explicit = st.lists(ADDRS, min_size=0, max_size=6)
    contiguous = st.tuples(ADDRS, st.integers(0, 6)).map(
        lambda t: range(t[0], t[0] + t[1])
    )
    return st.one_of(explicit, contiguous)


def _call(method, *args):
    """One ``(method, args)`` program step, built from strategies."""
    return st.tuples(st.just(method), st.tuples(*args))


def _columns(procs=PROCS, addrs=ADDRS):
    """Parallel ``(procs, addrs)`` columns for a columnar op: processors
    and addresses both repeat within one call."""
    return st.lists(st.tuples(procs, addrs), max_size=6).map(
        lambda pairs: ([p for p, _ in pairs], [a for _, a in pairs])
    )


def _write_ops(procs=PROCS, addrs=ADDRS):
    return st.one_of(
        _call("write", procs, addrs, VALUES),
        st.builds(
            lambda proc, addrs, seed: (
                "write_cols", (proc, addrs, [seed + i for i in range(len(addrs))])
            ),
            PROCS,
            _block_addrs(),
            VALUES,
        ),
        st.builds(
            lambda cols, seed: (
                "write_each", cols + ([seed + i for i in range(len(cols[0]))],)
            ),
            _columns(procs, addrs),
            VALUES,
        ),
        _call("local", PROCS, st.integers(0, 4)),
        st.builds(
            lambda procs, ops: ("local_each", (procs, ops)),
            st.lists(PROCS, max_size=6),
            st.integers(0, 4),
        ),
    )


def _read_ops(procs=PROCS, addrs=ADDRS):
    return st.one_of(
        _call("read", procs, addrs),
        _call("read_block", PROCS, _block_addrs()),
        st.builds(lambda cols: ("read_each", cols), _columns(procs, addrs)),
        _call("local", PROCS, st.integers(0, 4)),
    )


def _replay_phase(machine, program):
    """Replay ``program`` as one phase; return the handles its reads got."""
    handles = []
    with machine.phase() as ph:
        for method, args in program:
            handle = getattr(ph, method)(*args)
            if method.startswith("read"):
                handles.append(handle)
    return handles


def _replay_superstep(bsp, program):
    """Replay ``program`` as one superstep."""
    with bsp.superstep() as ss:
        for method, args in program:
            getattr(ss, method)(*args)


write_phases = st.lists(_write_ops(), min_size=0, max_size=8)
read_phases = st.lists(_read_ops(), min_size=0, max_size=8)
# Reads crowding onto four cells, so a cell's single-reader entry meets a
# second reader (scalar, block or columnar) later in the same phase.
crowded_read_phases = st.lists(_read_ops(addrs=st.integers(0, 3)), min_size=2, max_size=10)

MACHINES = [
    pytest.param(
        lambda eng: QSM(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="qsm",
    ),
    pytest.param(
        lambda eng: SQSM(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="sqsm",
    ),
    pytest.param(
        lambda eng: QSMGD(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="qsm-gd",
    ),
    pytest.param(
        lambda eng: GSM(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="gsm",
    ),
    pytest.param(
        lambda eng: PEM(
            PEMParams(M=16, B=4), seed=7, record_trace=True,
            record_costs=True, engine=eng,
        ),
        id="pem",
    ),
]


def _sans_wall(records):
    # wall_time is real elapsed clock — the one field that legitimately
    # differs between engines.
    return [replace(r, wall_time=0.0) for r in records]


def _read_values(handles):
    out = []
    for h in handles:
        if hasattr(h, "values"):
            out.append(list(h.values))
        else:
            out.append(h.value)
    return out


def _assert_machines_equal(ref, vec):
    assert ref.history == vec.history
    assert vec.history == ref.history  # reflected CountQueue equality too
    assert ref.phase_costs == vec.phase_costs
    assert ref.time == vec.time
    assert ref._memory == vec._memory
    assert vec._memory == ref._memory
    assert ref.traces == vec.traces
    assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)


def _run_both(make, writes, reads):
    ref, vec = make("reference"), make("vector")
    results = []
    for machine in (ref, vec):
        vals = []
        try:
            vals.append(_read_values(_replay_phase(machine, writes)))
            vals.append(_read_values(_replay_phase(machine, reads)))
            results.append(("ok", vals))
        except MemoryConflictError as exc:
            results.append(("conflict", str(exc)))
    # Identical outcome: both conflict with the same message, or both
    # succeed with identical observables.
    assert results[0] == results[1]
    if results[0][0] == "ok":
        _assert_machines_equal(ref, vec)
    return results[0]


class TestSharedMemoryBitEquality:
    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=60, deadline=None)
    def test_engines_identical_on_random_programs(self, make, writes, reads):
        _run_both(make, writes, reads)

    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=25, deadline=None)
    def test_engines_identical_on_mixed_conflicting_phases(self, make, writes, reads):
        # Interleave reads and writes in one phase so conflict detection
        # (and its error messages) is exercised, not just clean programs.
        _run_both(make, writes + reads, reads + writes)

    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=crowded_read_phases)
    @settings(max_examples=25, deadline=None)
    def test_engines_identical_on_crowded_reads(self, make, writes, reads):
        # Single-reader entries and reader sets mixed on the same cells.
        _run_both(make, writes, reads)

    @pytest.mark.parametrize(
        "policy",
        [FirstWriterWins(), LastWriterWins(), SeededWinners(99)],
        ids=["first", "last", "seeded"],
    )
    @given(writes=write_phases)
    @settings(max_examples=25, deadline=None)
    def test_winner_policies_replay_identically(self, policy, writes):
        make = lambda eng: QSM(seed=11, winner_policy=policy, engine=eng)
        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            policy.reset()
            _replay_phase(machine, writes)
        assert ref.history == vec.history
        assert ref._memory == vec._memory

    @pytest.mark.parametrize(
        "policy",
        [FirstWriterWins(), LastWriterWins(), SeededWinners(99)],
        ids=["first", "last", "seeded"],
    )
    @given(writes=write_phases)
    @settings(max_examples=15, deadline=None)
    def test_pem_winner_policies_replay_identically(self, policy, writes):
        # PEM routes collisions through the same _pick_winners choke point
        # as the QSM family; the draws must be engine-independent there too.
        make = lambda eng: PEM(
            PEMParams(M=16, B=4), seed=11, winner_policy=policy, engine=eng
        )
        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            policy.reset()
            _replay_phase(machine, writes)
        assert ref.history == vec.history
        assert ref._memory == vec._memory
        assert ref.phase_costs == vec.phase_costs

    @given(writes=write_phases, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fault_plans_fire_identically(self, writes, seed):
        def run(eng):
            plan = random_fault_plan("shared", seed=seed, max_faults=2)
            machine = QSM(seed=5, fault_plan=plan, record_costs=True, engine=eng)
            for _ in range(3):
                _replay_phase(machine, writes)
            return machine

        ref, vec = run("reference"), run("vector")
        assert ref.history == vec.history
        assert ref.phase_costs == vec.phase_costs
        assert ref._memory == vec._memory
        assert [e.to_dict() for e in ref.fault_events] == [
            e.to_dict() for e in vec.fault_events
        ]
        assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)


class TestPRAMBitEquality:
    @given(
        addrs=st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        value=VALUES,
    )
    @settings(max_examples=25, deadline=None)
    def test_crcw_step_identical(self, addrs, value):
        def make(eng):
            return PRAM(
                PRAMParams(variant="CRCW", write_rule="arbitrary"),
                seed=3,
                engine=eng,
            )

        prog = [("write", (i, a, value + i)) for i, a in enumerate(addrs)]
        ref, vec = make("reference"), make("vector")
        _replay_phase(ref, prog)
        _replay_phase(vec, prog)
        assert ref.history == vec.history
        assert ref._memory == vec._memory


class TestColumnarOpsBitEquality:
    @pytest.mark.parametrize("variant", ["EREW", "CREW", "CRCW"])
    @pytest.mark.parametrize("rule", ["arbitrary", "priority", "common"])
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=20, deadline=None)
    def test_pram_steps_and_violations_identical(self, variant, rule, writes, reads):
        # A PRAM step allows one access per processor and (by variant) no
        # concurrent reads or writes; columnar steps that break either rule
        # must raise the same ConcurrencyViolation on both engines.
        def run(eng):
            machine = PRAM(
                PRAMParams(variant=variant, write_rule=rule), seed=3,
                record_trace=True, engine=eng,
            )
            try:
                vals = [
                    _read_values(_replay_phase(machine, writes)),
                    _read_values(_replay_phase(machine, reads)),
                ]
            except (ConcurrencyViolation, MemoryConflictError) as exc:
                vals = (type(exc), str(exc))
            return machine, vals

        (ref, ref_vals), (vec, vec_vals) = run("reference"), run("vector")
        assert ref_vals == vec_vals
        assert ref.history == vec.history
        assert ref._memory == vec._memory
        assert ref.traces == vec.traces

    @pytest.mark.parametrize("variant", ["EREW", "CREW"])
    def test_pram_reports_the_same_violating_cell(self, variant):
        # Two violating cells, the higher one touched first: both engines
        # name the lowest-addressed one.
        messages = set()
        for eng in ("reference", "vector"):
            machine = PRAM(PRAMParams(variant=variant), engine=eng)
            with pytest.raises(ConcurrencyViolation) as info:
                with machine.phase() as ph:
                    ph.write_each([0, 1, 2, 3], [5, 5, 2, 2], [1, 2, 3, 4])
            messages.add(str(info.value))
        assert messages == {f"2 concurrent writers of cell 2 on a {variant} PRAM"}

    @pytest.mark.parametrize("model", [QSM, GSM])
    @given(
        program=st.lists(
            st.one_of(_write_ops(BAD_IDS, BAD_IDS), _read_ops(BAD_IDS, BAD_IDS)),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_bad_entries_fail_identically(self, model, program):
        # Negative, non-int and out-of-range processors and addresses (the
        # machines have 4 processors and 16 cells): the first bad pair
        # raises the same error on both engines, and what the phase issued
        # before it commits identically.
        def run(eng):
            machine = model(
                num_processors=4, memory_size=16, seed=7, record_trace=True,
                record_costs=True, engine=eng,
            )
            error = None
            with machine.phase() as ph:
                for method, args in program:
                    try:
                        getattr(ph, method)(*args)
                    except (TypeError, ValueError, MemoryConflictError) as exc:
                        error = (type(exc), str(exc))
                        break
            return machine, error

        (ref, ref_error), (vec, vec_error) = run("reference"), run("vector")
        assert ref_error == vec_error
        _assert_machines_equal(ref, vec)


class TestBSPBitEquality:
    send_programs = st.lists(
        st.one_of(
            _call("send", st.integers(0, 3), st.integers(0, 3), VALUES),
            st.builds(
                lambda src, dsts, seed: (
                    "send_cols", (src, dsts, [seed + i for i in range(len(dsts))])
                ),
                st.integers(0, 3),
                st.lists(st.integers(0, 3), min_size=0, max_size=6),
                VALUES,
            ),
            _call("local", st.integers(0, 3), st.integers(0, 4)),
        ),
        min_size=0,
        max_size=8,
    )

    @given(program=send_programs)
    @settings(max_examples=60, deadline=None)
    def test_superstep_streams_identical(self, program):
        def make(eng):
            return BSP(4, BSPParams(g=2, L=2), record_costs=True, engine=eng)

        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            _replay_superstep(machine, program)
            _replay_superstep(machine, program[::-1])
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)

    @given(program=send_programs, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fault_plans_route_identically(self, program, seed):
        def run(eng):
            plan = random_fault_plan("bsp", seed=seed, max_faults=2, procs=4)
            machine = BSP(4, BSPParams(g=2, L=2), fault_plan=plan, engine=eng)
            for _ in range(3):
                _replay_superstep(machine, program)
            return machine

        ref, vec = run("reference"), run("vector")
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert [e.to_dict() for e in ref.fault_events] == [
            e.to_dict() for e in vec.fault_events
        ]


class TestMPCBitEquality:
    # MPC is a BSP subclass with a different round charge, so the same
    # randomized send programs exercise its commit path; records, round
    # costs and inboxes must match across engines bit-for-bit.
    send_programs = TestBSPBitEquality.send_programs

    @given(program=send_programs)
    @settings(max_examples=60, deadline=None)
    def test_round_streams_identical(self, program):
        def make(eng):
            return MPC(4, MPCParams(s=3), record_costs=True, engine=eng)

        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            _replay_superstep(machine, program)
            _replay_superstep(machine, program[::-1])
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert ref.rounds == vec.rounds
        assert ref.max_message_volume == vec.max_message_volume
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)

    @given(program=send_programs, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fault_plans_route_identically(self, program, seed):
        def run(eng):
            plan = random_fault_plan("bsp", seed=seed, max_faults=2, procs=4)
            machine = MPC(4, MPCParams(s=3), fault_plan=plan, engine=eng)
            for _ in range(3):
                _replay_superstep(machine, program)
            return machine

        ref, vec = run("reference"), run("vector")
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert [e.to_dict() for e in ref.fault_events] == [
            e.to_dict() for e in vec.fault_events
        ]
