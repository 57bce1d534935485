"""Shared-memory machine semantics: read latency, conflicts, accounting."""

import pytest

from repro.core import (
    GSM,
    QSM,
    SQSM,
    GSMParams,
    MemoryConflictError,
    PhaseClosedError,
    QSMParams,
    SQSMParams,
)


class TestReadLatency:
    def test_read_value_sealed_during_phase(self):
        m = QSM()
        m.load([7])
        with m.phase() as ph:
            h = ph.read(0, 0)
            with pytest.raises(PhaseClosedError):
                _ = h.value
        assert h.value == 7

    def test_cannot_write_same_phase_read_value(self):
        m = QSM()
        m.load([7])
        with pytest.raises(PhaseClosedError):
            with m.phase() as ph:
                h = ph.read(0, 0)
                ph.write(1, 5, h)

    def test_resolved_handle_unwrapped_on_write(self):
        m = QSM()
        m.load([7])
        with m.phase() as ph:
            h = ph.read(0, 0)
        with m.phase() as ph:
            ph.write(0, 5, h)  # resolved handle from a previous phase: ok
        assert m.peek(5) == 7

    def test_read_sees_pre_phase_value(self):
        m = QSM()
        m.load([1])
        with m.phase() as ph:
            ph.write(0, 1, 99)
            h = ph.read(1, 0)
        assert h.value == 1
        # A read in the NEXT phase sees the write.
        with m.phase() as ph:
            h2 = ph.read(0, 1)
        assert h2.value == 99


class TestConflicts:
    def test_read_then_write_same_cell_rejected(self):
        m = QSM()
        with pytest.raises(MemoryConflictError):
            with m.phase() as ph:
                ph.read(0, 3)
                ph.write(1, 3, "x")

    def test_write_then_read_same_cell_rejected(self):
        m = QSM()
        with pytest.raises(MemoryConflictError):
            with m.phase() as ph:
                ph.write(0, 3, "x")
                ph.read(1, 3)

    def test_concurrent_reads_allowed(self):
        m = QSM()
        m.load([5])
        with m.phase() as ph:
            hs = [ph.read(i, 0) for i in range(4)]
        assert [h.value for h in hs] == [5, 5, 5, 5]

    def test_concurrent_writes_allowed(self):
        m = QSM()
        with m.phase() as ph:
            for i in range(4):
                ph.write(i, 0, i)
        assert m.peek(0) in (0, 1, 2, 3)

    def test_machine_usable_after_aborted_phase(self):
        m = QSM()
        with pytest.raises(MemoryConflictError):
            with m.phase() as ph:
                ph.read(0, 0)
                ph.write(0, 0, 1)
        with m.phase() as ph:
            ph.write(0, 1, "ok")
        assert m.peek(1) == "ok"

    def test_nested_phase_rejected(self):
        m = QSM()
        ph = m.phase()
        with pytest.raises(PhaseClosedError):
            m.phase()
        with ph:
            pass


class TestValidation:
    def test_processor_bound_enforced(self):
        m = QSM(num_processors=2)
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.read(2, 0)

    def test_memory_bound_enforced(self):
        m = QSM(memory_size=4)
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.write(0, 4, 1)

    def test_negative_processor_rejected(self):
        m = QSM()
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.local(-1)

    def test_bool_is_not_a_processor_id(self):
        m = QSM()
        with pytest.raises(TypeError):
            with m.phase() as ph:
                ph.local(True)

    def test_negative_ops_rejected(self):
        m = QSM()
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.local(0, -1)

    def test_operations_after_commit_rejected(self):
        m = QSM()
        with m.phase() as ph:
            ph.local(0, 1)
        with pytest.raises(PhaseClosedError):
            ph.local(0, 1)


class TestAccounting:
    def test_time_accumulates(self):
        m = QSM(QSMParams(g=3))
        with m.phase() as ph:
            ph.write(0, 0, 1)  # cost 3
        with m.phase() as ph:
            ph.read(0, 0)
            ph.read(1, 0)  # m_rw=1, kappa=2: cost max(3, 2) = 3
        assert m.time == 6
        assert m.phase_count == 2

    def test_history_records(self):
        m = QSM()
        with m.phase() as ph:
            ph.read(0, 0)
            ph.read(0, 1)
            ph.write(1, 2, "x")
        rec = m.history[0]
        assert rec.reads_per_proc == {0: 2}
        assert rec.writes_per_proc == {1: 1}
        assert rec.read_queue == {0: 1, 1: 1}
        assert rec.write_queue == {2: 1}

    def test_memory_in_use(self):
        m = QSM()
        m.load([1, 2, 3])
        assert m.memory_in_use == 3

    def test_snapshots_recorded_when_enabled(self):
        m = QSM(record_snapshots=True)
        with m.phase() as ph:
            ph.write(0, 0, "a")
        with m.phase() as ph:
            ph.write(0, 1, "b")
        assert m.snapshots == [{0: "a"}, {0: "a", 1: "b"}]

    def test_traces_recorded_when_enabled(self):
        m = QSM(record_trace=True)
        m.load([9])
        with m.phase() as ph:
            ph.read(0, 0)
            ph.write(1, 1, "w")
        t = m.traces[0]
        assert t.reads == {0: (0,)}
        assert t.writes == {1: ((1, "w"),)}

    def test_traces_cover_block_operations(self):
        m = QSM(record_trace=True)
        m.load([9, 8])
        with m.phase() as ph:
            ph.read_block(0, [0, 1])
            ph.write_block(1, [(2, "a"), (3, "b")])
            ph.write(2, 3, "c")  # collides with the block write of cell 3
        t = m.traces[0]
        assert t.reads == {0: (0, 1)}
        assert t.writes[1] == ((2, "a"), (3, "b"))
        assert t.writes[2] == ((3, "c"),)


class TestContentionAccounting:
    """Queues count *distinct processors* per cell (Section 2.1), so a
    processor issuing two accesses of one cell contributes 1 to kappa —
    while both requests still count toward its own m_rw."""

    def test_duplicate_reads_by_one_proc_count_once(self):
        m = QSM()
        m.load([5])
        with m.phase() as ph:
            ph.read(0, 0)
            ph.read(0, 0)
        rec = m.history[0]
        assert rec.reads_per_proc == {0: 2}  # raw requests feed m_rw
        assert rec.read_queue == {0: 1}  # one distinct processor
        assert rec.kappa == 1

    def test_duplicate_writes_by_one_proc_count_once(self):
        m = QSM()
        with m.phase() as ph:
            ph.write(0, 3, "a")
            ph.write(0, 3, "b")
        rec = m.history[0]
        assert rec.writes_per_proc == {0: 2}
        assert rec.write_queue == {3: 1}
        assert rec.kappa == 1

    def test_mixed_duplicate_and_distinct_writers(self):
        m = QSM()
        with m.phase() as ph:
            ph.write(0, 3, "a")
            ph.write(0, 3, "b")
            ph.write(1, 3, "c")
        assert m.history[0].write_queue == {3: 2}

    def test_duplicate_block_reads_count_once(self):
        m = QSM()
        m.load([5])
        with m.phase() as ph:
            ph.read_block(0, [0, 0, 0])
        rec = m.history[0]
        assert rec.reads_per_proc == {0: 3}
        assert rec.read_queue == {0: 1}

    def test_kappa_regression_qsm_cost(self):
        # Four processors each read cell 0 twice: kappa must be 4 (distinct
        # processors), not 8 (raw requests).  g=1 makes kappa the dominant
        # term, so a miscount would show directly in the phase cost.
        m = QSM(QSMParams(g=1))
        m.load([5])
        with m.phase() as ph:
            for proc in range(4):
                ph.read(proc, 0)
                ph.read(proc, 0)
        assert m.history[0].kappa == 4
        assert m.phase_costs == [4.0]

    def test_kappa_regression_sqsm_cost(self):
        m = SQSM(SQSMParams(g=3))
        m.load([5])
        with m.phase() as ph:
            for proc in range(4):
                ph.read(proc, 0)
                ph.read(proc, 0)
        # max(m_op, g*m_rw, g*kappa) = max(0, 6, 12), not 24.
        assert m.phase_costs == [12.0]

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_single_reader_entry_upgrades_on_a_second_reader(self, engine, steps):
        # A read cell holds its one reader until a second distinct one
        # arrives: p via read_each (queue 1), p again via read (still 1),
        # then q via read_block (2).  The cell is read-locked throughout.
        reads = [
            lambda ph: ph.read_each([0, 1], [5, 6]),
            lambda ph: ph.read(0, 5),
            lambda ph: ph.read_block(2, [5, 7]),
        ]
        m = QSM(QSMParams(g=1), engine=engine)
        m.load(list(range(8)))
        with m.phase() as ph:
            for read in reads[:steps]:
                read(ph)
                with pytest.raises(MemoryConflictError):
                    ph.write(3, 5, "x")
        rec = m.history[0]
        assert rec.read_queue[5] == [1, 1, 2][steps - 1]
        assert rec.kappa == [1, 1, 2][steps - 1]
        assert rec.reads_per_proc[0] == [1, 2, 2][steps - 1]
        assert m.peek(5) == 5

    def test_kappa_regression_gsm_big_steps(self):
        m = GSM(GSMParams(alpha=2, beta=2))
        m.load_packed([5])
        with m.phase() as ph:
            for proc in range(4):
                ph.read(proc, 0)
                ph.read(proc, 0)
        # b = max(ceil(2/2), ceil(4/2)) = 2 big-steps, not ceil(8/2) = 4.
        assert m.big_steps == 2


class TestBlockReads:
    def test_values_resolve_in_request_order(self):
        m = QSM()
        m.load([10, 11, 12])
        with m.phase() as ph:
            h = ph.read_block(0, [2, 0, 1])
            with pytest.raises(PhaseClosedError):
                _ = h.values
        assert h.values == [12, 10, 11]
        assert len(h) == 3

    def test_equivalent_to_scalar_loop(self):
        scalar, block = QSM(), QSM()
        for m in (scalar, block):
            m.load([1, 2, 3, 4])
        with scalar.phase() as ph:
            hs = [ph.read(0, a) for a in (0, 1)] + [ph.read(1, a) for a in (2, 3)]
        with block.phase() as ph:
            b0 = ph.read_block(0, [0, 1])
            b1 = ph.read_block(1, [2, 3])
        assert [h.value for h in hs] == b0.values + b1.values
        assert scalar.history == block.history
        assert scalar.phase_costs == block.phase_costs

    def test_empty_block_is_a_no_op(self):
        m = QSM()
        with m.phase() as ph:
            h = ph.read_block(0, [])
            ph.local(0, 1)
        assert h.values == []
        assert m.history[0].reads_per_proc == {}

    def test_conflict_with_write_rejected(self):
        m = QSM()
        with pytest.raises(MemoryConflictError):
            with m.phase() as ph:
                ph.write(0, 1, "x")
                ph.read_block(1, [0, 1])

    def test_bad_address_type_rejected(self):
        m = QSM()
        with pytest.raises(TypeError):
            with m.phase() as ph:
                ph.read_block(0, [0, "nope"])

    def test_address_bounds_enforced(self):
        m = QSM(memory_size=4)
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.read_block(0, [0, 4])
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.read_block(0, [-1, 2])


class TestBlockWrites:
    def test_equivalent_to_scalar_loop(self):
        scalar, block = QSM(seed=3), QSM(seed=3)
        items = [(5, "a"), (6, "b"), (7, "c")]
        with scalar.phase() as ph:
            for addr, value in items:
                ph.write(0, addr, value)
        with block.phase() as ph:
            ph.write_block(0, items)
        assert scalar._memory == block._memory
        assert scalar.history == block.history
        assert scalar.phase_costs == block.phase_costs

    def test_collision_with_scalar_write_arbitrates(self):
        m = QSM()
        with m.phase() as ph:
            ph.write_block(0, [(2, "block")])
            ph.write(1, 2, "scalar")
        assert m.history[0].write_queue == {2: 2}
        assert m.peek(2) in ("block", "scalar")

    def test_duplicate_addresses_within_block(self):
        # Duplicates inside one block collide like the scalar loop: same
        # proc, so the queue stays 1, and one of the values lands.
        m = QSM()
        with m.phase() as ph:
            ph.write_block(0, [(3, "x"), (3, "y")])
        rec = m.history[0]
        assert rec.writes_per_proc == {0: 2}
        assert rec.write_queue == {3: 1}
        assert m.peek(3) in ("x", "y")

    def test_overlapping_blocks_from_two_procs(self):
        m = QSM()
        with m.phase() as ph:
            ph.write_block(0, [(0, "a0"), (1, "a1")])
            ph.write_block(1, [(1, "b1"), (2, "b2")])
        rec = m.history[0]
        assert rec.write_queue == {0: 1, 1: 2, 2: 1}
        assert m.peek(0) == "a0"
        assert m.peek(1) in ("a1", "b1")
        assert m.peek(2) == "b2"

    def test_conflict_with_read_rejected(self):
        m = QSM()
        with pytest.raises(MemoryConflictError):
            with m.phase() as ph:
                ph.read(0, 6)
                ph.write_block(1, [(5, "v"), (6, "w")])

    def test_sealed_handle_value_rejected(self):
        m = QSM()
        m.load([9])
        with pytest.raises(PhaseClosedError):
            with m.phase() as ph:
                h = ph.read(0, 0)
                ph.write_block(1, [(5, h)])

    def test_resolved_handle_unwrapped(self):
        m = QSM()
        m.load([9])
        with m.phase() as ph:
            h = ph.read(0, 0)
        with m.phase() as ph:
            ph.write_block(0, [(5, h)])
        assert m.peek(5) == 9

    def test_tuple_values_survive(self):
        # Tuple payloads must not be confused with internal bookkeeping.
        m = QSM()
        with m.phase() as ph:
            ph.write_block(0, [(0, (1, 2)), (1, ("proc", "value"))])
        assert m.peek(0) == (1, 2)
        assert m.peek(1) == ("proc", "value")

    def test_malformed_pair_aborts_phase(self):
        m = QSM()
        with pytest.raises((TypeError, ValueError)):
            with m.phase() as ph:
                ph.write_block(0, [(0, "a"), (1, "b", "extra")])
        with m.phase() as ph:
            ph.write(0, 9, "ok")  # machine still usable
        assert m.peek(9) == "ok"

    def test_bad_address_in_block_rejected(self):
        m = QSM(memory_size=8)
        with pytest.raises(TypeError):
            with m.phase() as ph:
                ph.write_block(0, [(0, "a"), ("x", "b")])
        with pytest.raises(ValueError):
            with m.phase() as ph:
                ph.write_block(0, [(0, "a"), (8, "b")])

    def test_empty_block_is_a_no_op(self):
        m = QSM()
        with m.phase() as ph:
            ph.write_block(0, [])
            ph.local(0, 1)
        assert m.history[0].writes_per_proc == {}

    def test_gsm_strong_queuing_collects_block_values(self):
        m = GSM()
        with m.phase() as ph:
            ph.write_block(0, [(0, "a")])
            ph.write(1, 0, "b")
        assert set(m.peek(0)) == {"a", "b"}


class TestHighWaterAllocator:
    def test_next_free_address_tracks_pokes(self):
        m = QSM()
        assert m.next_free_address() == 0
        m.poke(41, "x")
        assert m.next_free_address() == 42
        m.poke(7, "y")  # lower address: the mark must not move back
        assert m.next_free_address() == 42

    def test_next_free_address_tracks_phase_writes(self):
        m = QSM()
        with m.phase() as ph:
            ph.write(0, 99, "v")
        assert m.next_free_address() == 100
        with m.phase() as ph:
            ph.write_block(0, [(200, "a"), (150, "b")])
        assert m.next_free_address() == 201

    def test_matches_max_of_memory(self):
        m = QSM()
        m.load([1, 2, 3], base=10)
        with m.phase() as ph:
            ph.write_block(0, [(4, "x")])
        assert m.next_free_address() == max(m._memory) + 1
