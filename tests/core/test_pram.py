"""The classical PRAM family: step discipline, concurrency rules, write rules."""

import pytest

from repro.core import PRAM, ConcurrencyViolation, PRAMParams


class TestParams:
    def test_defaults(self):
        p = PRAMParams()
        assert p.variant == "EREW" and p.write_rule == "arbitrary"

    def test_variant_validated(self):
        with pytest.raises(ValueError):
            PRAMParams(variant="QRQW")

    def test_write_rule_validated(self):
        with pytest.raises(ValueError):
            PRAMParams(write_rule="fetch-add")


class TestStepDiscipline:
    def test_each_step_costs_one(self):
        m = PRAM()
        for _ in range(5):
            with m.phase() as ph:
                ph.write(0, 0, 1)
        assert m.time == 5.0

    def test_two_accesses_per_processor_rejected(self):
        m = PRAM(PRAMParams("CRCW"))
        m.load([1, 2])
        with pytest.raises(ConcurrencyViolation, match="at most one"):
            with m.phase() as ph:
                ph.read(0, 0)
                ph.read(0, 1)

    def test_read_plus_write_rejected(self):
        m = PRAM(PRAMParams("CRCW"))
        m.load([1, 2])
        with pytest.raises(ConcurrencyViolation):
            with m.phase() as ph:
                ph.read(0, 0)
                ph.write(0, 5, 1)

    def test_local_work_free_and_unbounded(self):
        m = PRAM()
        with m.phase() as ph:
            ph.local(0, 1000)
            ph.write(0, 0, 1)
        assert m.time == 1.0

    def test_machine_usable_after_violation(self):
        m = PRAM()
        m.load([1])
        with pytest.raises(ConcurrencyViolation):
            with m.phase() as ph:
                ph.read(0, 0)
                ph.read(1, 0)
        with m.phase() as ph:
            ph.write(0, 3, "ok")
        assert m.peek(3) == "ok"

    def test_failed_step_commits_nothing(self):
        m = PRAM()
        m.load([1])
        with pytest.raises(ConcurrencyViolation):
            with m.phase() as ph:
                ph.read(0, 0)
                ph.read(1, 0)
        assert m.time == 0.0
        assert m.phase_count == 0


class TestConcurrencyRules:
    def test_erew_rejects_concurrent_reads(self):
        m = PRAM(PRAMParams("EREW"))
        m.load([7])
        with pytest.raises(ConcurrencyViolation, match="EREW"):
            with m.phase() as ph:
                ph.read(0, 0)
                ph.read(1, 0)

    def test_crew_allows_concurrent_reads(self):
        m = PRAM(PRAMParams("CREW"))
        m.load([7])
        with m.phase() as ph:
            handles = [ph.read(i, 0) for i in range(4)]
        assert all(h.value == 7 for h in handles)

    def test_crew_rejects_concurrent_writes(self):
        m = PRAM(PRAMParams("CREW"))
        with pytest.raises(ConcurrencyViolation, match="CREW"):
            with m.phase() as ph:
                ph.write(0, 0, 1)
                ph.write(1, 0, 2)

    def test_crcw_allows_both(self):
        m = PRAM(PRAMParams("CRCW"))
        with m.phase() as ph:
            ph.write(0, 0, 5)
            ph.write(1, 0, 6)
        assert m.peek(0) in (5, 6)


class TestWriteRules:
    def test_common_accepts_agreement(self):
        m = PRAM(PRAMParams("CRCW", "common"))
        with m.phase() as ph:
            for i in range(5):
                ph.write(i, 0, "same")
        assert m.peek(0) == "same"

    def test_common_rejects_disagreement(self):
        m = PRAM(PRAMParams("CRCW", "common"))
        with pytest.raises(ConcurrencyViolation, match="COMMON"):
            with m.phase() as ph:
                ph.write(0, 0, "a")
                ph.write(1, 0, "b")

    def test_priority_lowest_id_wins(self):
        m = PRAM(PRAMParams("CRCW", "priority"))
        with m.phase() as ph:
            ph.write(5, 0, "late")
            ph.write(2, 0, "winner")
            ph.write(9, 0, "later")
        assert m.peek(0) == "winner"

    def test_arbitrary_seeded(self):
        def run(seed):
            m = PRAM(PRAMParams("CRCW", "arbitrary"), seed=seed)
            with m.phase() as ph:
                for i in range(4):
                    ph.write(i, 0, i)
            return m.peek(0)

        assert run(3) == run(3)
        assert run(3) in (0, 1, 2, 3)


class TestPRAMAlgorithms:
    @pytest.mark.parametrize("n", [1, 2, 7, 33, 100])
    def test_or_crcw(self, n):
        from repro.algorithms.pram_algos import or_crcw
        from repro.problems import gen_bits, verify_or

        bits = gen_bits(n, density=0.1, seed=n)
        r = or_crcw(PRAM(PRAMParams("CRCW", "common")), bits)
        assert verify_or(bits, r.value)

    def test_or_crcw_constant_steps(self):
        from repro.algorithms.pram_algos import or_crcw

        t = {}
        for n in (16, 1024):
            r = or_crcw(PRAM(PRAMParams("CRCW", "common")), [1] * n)
            t[n] = r.time
        assert t[16] == t[1024] == 2.0  # O(1), independent of n

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 100])
    def test_parity_erew(self, n):
        from repro.algorithms.pram_algos import parity_erew
        from repro.problems import gen_bits, verify_parity

        bits = gen_bits(n, seed=n)
        r = parity_erew(PRAM(PRAMParams("EREW")), bits)
        assert verify_parity(bits, r.value)

    @pytest.mark.parametrize("n", [2, 9, 64, 200])
    def test_parity_crcw(self, n):
        from repro.algorithms.pram_algos import parity_crcw
        from repro.problems import gen_bits, verify_parity

        bits = gen_bits(n, seed=n + 1)
        r = parity_crcw(PRAM(PRAMParams("CRCW", "common")), bits)
        assert verify_parity(bits, r.value)

    def test_crcw_parity_beats_erew(self):
        """The Beame-Hastad separation: log n/loglog n < log n."""
        from repro.algorithms.pram_algos import parity_crcw, parity_erew
        from repro.problems import gen_bits

        bits = gen_bits(1024, seed=5)
        t_erew = parity_erew(PRAM(PRAMParams("EREW")), bits).time
        t_crcw = parity_crcw(PRAM(PRAMParams("CRCW", "common")), bits).time
        assert t_crcw < t_erew

    def test_inputs_must_be_bits(self):
        from repro.algorithms.pram_algos import or_crcw, parity_erew

        with pytest.raises(ValueError, match=r"^OR input must be 0/1 bits, got 1\.7$"):
            or_crcw(PRAM(PRAMParams("CRCW", "common")), [1, 1.7])
        with pytest.raises(ValueError, match=r"^parity input must be 0/1 bits, got '1'$"):
            parity_erew(PRAM(PRAMParams("EREW")), [0, "1"])

    def test_variant_requirements_enforced(self):
        from repro.algorithms.pram_algos import or_crcw, parity_crcw

        with pytest.raises(ValueError):
            or_crcw(PRAM(PRAMParams("EREW")), [1])
        with pytest.raises(ValueError):
            parity_crcw(PRAM(PRAMParams("CREW")), [1, 0])

    def test_qrqw_bridge(self):
        """The QRQW PRAM = QSM with g=1 sits between CREW and CRCW: the
        CRCW pattern method runs on it with contention *charged*, not free."""
        from repro.algorithms.parity import parity_blocks
        from repro.core import QSM, QSMParams
        from repro.problems import gen_bits

        bits = gen_bits(256, seed=6)
        qrqw = QSM(QSMParams(g=1))
        r = parity_blocks(qrqw, bits, block_size=4)
        assert r.value == sum(bits) % 2
        # Contention shows up in the cost: some phase charged kappa > 1.
        assert any(rec.kappa > 1 for rec in qrqw.history)
