"""The PEM cost machine: params, I/O charges, winner policies, chaos hooks."""

import pytest

from repro.core import PEMParams, SharedMemoryMachine
from repro.faults.winners import LastWriterWins
from repro.models import PEM


class TestPEMParams:
    def test_defaults(self):
        prm = PEMParams()
        assert prm.M == 64 and prm.B == 8

    def test_cache_must_hold_a_block(self):
        with pytest.raises(ValueError, match="M >= B"):
            PEMParams(M=4, B=8)
        assert PEMParams(M=8, B=8).B == 8

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True, "8"])
    def test_rejects_invalid_counts(self, bad):
        with pytest.raises((ValueError, TypeError)):
            PEMParams(M=bad, B=1)
        with pytest.raises((ValueError, TypeError)):
            PEMParams(M=64, B=bad)

    def test_frozen(self):
        prm = PEMParams()
        with pytest.raises(Exception):
            prm.B = 16


class TestIOCharge:
    def test_is_shared_memory(self):
        assert issubclass(PEM, SharedMemoryMachine)
        assert PEM().model_label == "PEM"

    def test_block_of_writes_costs_one_io(self):
        machine = PEM(PEMParams(M=64, B=8))
        with machine.phase() as ph:
            for addr in range(8):
                ph.write(0, addr, addr)  # m_rw = 8 = B
        assert machine.time == 1.0

    def test_partial_block_rounds_up(self):
        machine = PEM(PEMParams(M=64, B=8))
        with machine.phase() as ph:
            for addr in range(9):
                ph.write(0, addr, addr)  # ceil(9/8) = 2
        assert machine.time == 2.0

    def test_contention_serializes_at_block_level(self):
        # kappa = 4 writers on one cell beats ceil(4/8) = 1.
        machine = PEM(PEMParams(M=64, B=8), num_processors=4)
        with machine.phase() as ph:
            for i in range(4):
                ph.write(i, 0, i)
        assert machine.time == 4.0

    def test_local_ops_never_exceed_the_unit_floor(self):
        # Computation inside the cache is free: 500 local ops charge the
        # same one-I/O phase floor the substrate gives an empty phase.
        machine = PEM(PEMParams(M=64, B=8))
        with machine.phase() as ph:
            ph.local(0, 500)
        assert machine.time == 1.0

    def test_cost_record_terms_and_model_tag(self):
        machine = PEM(PEMParams(M=64, B=4), record_costs=True)
        with machine.phase() as ph:
            for addr in range(8):
                ph.write(0, addr, 1)
        (rec,) = machine.cost_records
        assert rec.model == "PEM"
        assert rec.terms == {"ceil(m_rw/B)": 2.0, "kappa": 1.0}
        assert rec.dominant == "ceil(m_rw/B)"
        assert rec.cost == max(rec.terms.values())


class TestWriteSemantics:
    def test_arbitrary_winner_via_policy(self):
        machine = PEM(winner_policy=LastWriterWins())
        with machine.phase() as ph:
            ph.write(0, 5, "first")
            ph.write(1, 5, "second")
        assert machine._memory[5] == "second"

    def test_seeded_winner_is_deterministic(self):
        def run():
            machine = PEM(seed=21)
            with machine.phase() as ph:
                for i in range(4):
                    ph.write(i, 3, f"v{i}")
            return machine._memory[3]

        assert run() == run()

    def test_concurrent_reads_see_pre_phase_value(self):
        machine = PEM()
        machine.poke(2, 7)
        with machine.phase() as ph:
            handles = [ph.read(i, 2) for i in range(3)]
        assert [h.value for h in handles] == [7, 7, 7]

    def test_read_write_same_cell_conflicts(self):
        from repro.core.machine import MemoryConflictError

        machine = PEM()
        machine.poke(0, 1)
        with pytest.raises(MemoryConflictError):
            with machine.phase() as ph:
                ph.read(0, 0)
                ph.write(1, 0, 2)


class TestEngines:
    def test_engine_selection(self):
        pytest.importorskip("numpy")
        assert PEM(engine="vector").engine == "vector"
        assert PEM(engine="reference").engine == "reference"

    def test_engines_agree_on_a_small_program(self):
        pytest.importorskip("numpy")

        def run(eng):
            machine = PEM(PEMParams(M=16, B=4), seed=9, engine=eng)
            with machine.phase() as ph:
                ph.write_block(0, [(a, a * a) for a in range(6)])
            with machine.phase() as ph:
                handle = ph.read_block(1, range(6))
            return machine.time, handle.values

        assert run("reference") == run("vector")
