"""Cost-provenance records: construction, aggregation, machine integration."""

import pytest

from repro.core import (
    BSP,
    GSM,
    PRAM,
    QSM,
    QSMGD,
    SQSM,
    BSPParams,
    GSMParams,
    PRAMParams,
    QSMGDParams,
    QSMParams,
    SQSMParams,
)
from repro.models import MPC, PEM, MPCParams, PEMParams
from repro.obs import (
    PhaseCostRecord,
    RunCostSummary,
    dominant_fractions,
    machine_cost_records,
    summarize,
)
from repro.obs.records import dominant_of


def run_contended_phases(machine, phases=3):
    """A small program with distinct contention per phase."""
    machine.load([0] * 8)
    for i in range(phases):
        with machine.phase() as ph:
            # i+1 distinct writers pile onto cell 7; one spread write each.
            for proc in range(i + 1):
                ph.write(proc, 7, proc)
            ph.local(0, 2)
    return machine


class TestDominantOf:
    def test_picks_max(self):
        assert dominant_of({"a": 1.0, "b": 3.0, "c": 2.0}) == "b"

    def test_ties_break_to_first_key(self):
        assert dominant_of({"m_op": 4.0, "g*m_rw": 4.0}) == "m_op"
        assert dominant_of({"L": 8.0, "g*h": 8.0, "w": 2.0}) == "L"

    def test_empty_terms(self):
        assert dominant_of({}) == ""


class TestPhaseCostRecord:
    def test_dict_round_trip_exact(self):
        rec = PhaseCostRecord(
            index=3,
            model="QSM",
            terms={"m_op": 2.0, "g*m_rw": 8.0, "kappa": 5.0},
            dominant="g*m_rw",
            cost=8.0,
            contention={5: 1, 1: 3},
            ops_per_proc={0: 4, 7: 1},
            wall_time=0.25,
        )
        assert PhaseCostRecord.from_dict(rec.to_dict()) == rec

    def test_dict_round_trip_coerces_json_string_keys(self):
        # json.dumps turns int keys into strings; from_dict must undo that.
        import json

        rec = PhaseCostRecord(
            index=0, model="BSP", terms={"L": 4.0}, dominant="L", cost=4.0,
            contention={2: 1}, ops_per_proc={1: 3},
        )
        rebuilt = PhaseCostRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert rebuilt == rec
        assert list(rebuilt.contention) == [2]


class TestMachineIntegration:
    def test_flag_off_records_nothing(self):
        m = run_contended_phases(QSM(QSMParams(g=2.0)))
        assert m.cost_records == []

    def test_one_record_per_phase(self):
        m = run_contended_phases(QSM(QSMParams(g=2.0), record_costs=True))
        assert len(m.cost_records) == m.phase_count
        assert [r.index for r in m.cost_records] == list(range(m.phase_count))

    @pytest.mark.parametrize(
        "factory,label,term_keys",
        [
            (lambda: QSM(QSMParams(g=2.0), record_costs=True), "QSM",
             {"m_op", "g*m_rw", "kappa"}),
            (lambda: SQSM(SQSMParams(g=2.0), record_costs=True), "s-QSM",
             {"m_op", "g*m_rw", "g*kappa"}),
            (lambda: GSM(GSMParams(alpha=2, beta=2), record_costs=True), "GSM",
             {"mu*ceil(m_rw/alpha)", "mu*ceil(kappa/beta)"}),
        ],
    )
    def test_model_labels_and_term_keys(self, factory, label, term_keys):
        m = run_contended_phases(factory())
        rec = m.cost_records[-1]
        assert rec.model == label
        assert set(rec.terms) == term_keys

    def test_cost_equals_max_term_and_matches_machine(self):
        m = run_contended_phases(SQSM(SQSMParams(g=3.0), record_costs=True))
        for rec, cost in zip(m.cost_records, m.phase_costs):
            assert rec.cost == max(rec.terms.values()) == cost

    def test_contention_histogram_counts_cells(self):
        m = QSM(QSMParams(g=1.0), record_costs=True)
        m.load([0] * 8)
        with m.phase() as ph:
            for proc in range(4):   # queue of 4 at cell 0
                ph.write(proc, 0, proc)
            ph.write(5, 1, 9)       # queue of 1 at cell 1
        hist = m.cost_records[0].contention
        assert hist[4] == 1 and hist[1] == 1

    def test_ops_per_proc_merges_reads_writes_locals(self):
        m = QSM(QSMParams(g=1.0), record_costs=True)
        m.load([0] * 8)
        with m.phase() as ph:
            handle = ph.read(0, 1)
            ph.write(0, 2, 1)
            ph.local(0, 3)
            ph.write(4, 3, 1)
        assert m.cost_records[0].ops_per_proc == {0: 5, 4: 1}

    def test_wall_time_positive_when_live(self):
        m = run_contended_phases(QSM(QSMParams(g=1.0), record_costs=True))
        assert all(rec.wall_time >= 0.0 for rec in m.cost_records)

    def test_rebuild_matches_live_modulo_wall_time(self):
        from dataclasses import replace

        live = run_contended_phases(SQSM(SQSMParams(g=2.0), record_costs=True))
        cold = run_contended_phases(SQSM(SQSMParams(g=2.0)))
        rebuilt = machine_cost_records(cold)
        assert rebuilt == [replace(r, wall_time=0.0) for r in live.cost_records]


class TestBSPRecords:
    def run_bsp(self, record_costs):
        b = BSP(4, BSPParams(g=2.0, L=8.0), record_costs=record_costs)
        with b.superstep() as ss:
            ss.send(0, 3, "x")
            ss.send(1, 3, "y")
            ss.local(2, 5)
        return b

    def test_flag_off(self):
        assert self.run_bsp(False).cost_records == []

    def test_superstep_record(self):
        b = self.run_bsp(True)
        (rec,) = b.cost_records
        assert rec.model == "BSP"
        assert set(rec.terms) == {"L", "g*h", "w"}
        assert rec.cost == max(rec.terms.values()) == b.step_costs[0]
        # component 3 received 2 messages -> one component at depth 2
        assert rec.contention[2] == 1

    def test_rebuild_matches_live(self):
        live = self.run_bsp(True)
        cold = self.run_bsp(False)
        rebuilt = machine_cost_records(cold)
        assert len(rebuilt) == 1
        assert rebuilt[0].terms == live.cost_records[0].terms
        assert rebuilt[0].dominant == live.cost_records[0].dominant
        assert rebuilt[0].wall_time == 0.0


class TestSummaries:
    def records(self):
        return [
            PhaseCostRecord(0, "QSM", {"m_op": 1.0, "kappa": 6.0}, "kappa", 6.0),
            PhaseCostRecord(1, "QSM", {"m_op": 3.0, "kappa": 1.0}, "m_op", 3.0),
            PhaseCostRecord(2, "QSM", {"m_op": 1.0, "kappa": 1.0}, "m_op", 1.0),
        ]

    def test_summarize(self):
        s = summarize(self.records())
        assert isinstance(s, RunCostSummary)
        assert s.phases == 3
        assert s.total_cost == 10.0
        assert s.dominant_phases == {"kappa": 1, "m_op": 2}
        assert s.dominant_cost == {"kappa": 6.0, "m_op": 4.0}
        assert s.dominant == "kappa"

    def test_fractions_sum_to_one(self):
        fractions = summarize(self.records()).fractions
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["kappa"] == pytest.approx(0.6)

    def test_empty_run(self):
        s = summarize([])
        assert s.phases == 0 and s.fractions == {}

    def test_zero_total_cost_yields_all_zero_fractions(self):
        # Regression: a degenerate run whose phases all charged zero used
        # to divide by zero; it must return an all-zero dict instead (same
        # keys as dominant_cost, empty only for an empty record list).
        records = [
            PhaseCostRecord(0, "QSM", {"m_op": 0.0, "kappa": 0.0}, "m_op", 0.0),
            PhaseCostRecord(1, "QSM", {"m_op": 0.0, "kappa": 0.0}, "m_op", 0.0),
        ]
        s = summarize(records)
        assert s.total_cost == 0.0
        assert s.fractions == {"m_op": 0.0}
        assert dominant_fractions(records) == {"m_op": 0.0}

    def test_dominant_fractions_accepts_machine_and_rounds(self):
        m = run_contended_phases(QSM(QSMParams(g=2.0), record_costs=True))
        fractions = dominant_fractions(m)
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-3)
        assert all(v == round(v, 4) for v in fractions.values())

    def test_dominant_fractions_accepts_record_list(self):
        assert dominant_fractions(self.records()) == {"kappa": 0.6, "m_op": 0.4}


def _shared_memory_program(m):
    """Phases won by contention, local work, bandwidth and collisions."""
    m.load(list(range(16)))
    with m.phase() as ph:
        ph.read_each(range(6), [0] * 6)
    with m.phase() as ph:
        ph.local(0, 40)
        ph.write(1, 20, 5)
    with m.phase() as ph:
        ph.read_block(0, range(8))
    with m.phase() as ph:
        ph.write_each(range(5), [30, 30, 30, 31, 31], [1, 2, 3, 4, 5])


def _pram_program(m):
    """CRCW steps: concurrent reads, collided writes, an idle step."""
    m.load(list(range(8)))
    with m.phase() as ph:
        ph.read_each(range(6), [0, 0, 0, 1, 1, 2])
    with m.phase() as ph:
        ph.write_each(range(4), [10, 10, 11, 11], [1, 2, 3, 4])
    with m.phase():
        pass


def _bsp_program(b):
    """Supersteps won by local work, an h-relation and the latency floor."""
    with b.superstep() as ss:
        ss.local(0, 500)
    with b.superstep() as ss:
        for src in range(4):
            ss.send_cols(src, [0] * 6, list(range(6)))
    with b.superstep() as ss:
        ss.send(1, 2, "x")


DOMINANCE_MODELS = [
    pytest.param(lambda rc: QSM(QSMParams(g=2.0), record_costs=rc),
                 _shared_memory_program, id="qsm"),
    pytest.param(lambda rc: SQSM(SQSMParams(g=2.0), record_costs=rc),
                 _shared_memory_program, id="sqsm"),
    pytest.param(lambda rc: QSMGD(QSMGDParams(g=2.0, d=3.0), record_costs=rc),
                 _shared_memory_program, id="qsm-gd"),
    pytest.param(lambda rc: GSM(GSMParams(alpha=2.0, beta=2.0), record_costs=rc),
                 _shared_memory_program, id="gsm"),
    pytest.param(lambda rc: PEM(PEMParams(M=8, B=2), record_costs=rc),
                 _shared_memory_program, id="pem"),
    pytest.param(
        lambda rc: PRAM(PRAMParams(variant="CRCW", write_rule="arbitrary"),
                        record_costs=rc),
        _pram_program, id="pram",
    ),
    pytest.param(lambda rc: BSP(4, BSPParams(g=2.0, L=8.0), record_costs=rc),
                 _bsp_program, id="bsp"),
    pytest.param(lambda rc: MPC(4, MPCParams(s=2.0), record_costs=rc),
                 _bsp_program, id="mpc"),
]


class TestDominantFractionsPaths:
    """A machine's history, its live records and its rebuilt records give
    the same fractions: same keys, same order, same floats."""

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("factory, program", DOMINANCE_MODELS)
    def test_history_live_and_rebuilt_agree(self, factory, program, engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        live, plain = factory(True), factory(False)
        program(live)
        program(plain)
        assert plain.cost_records == []
        for digits in (None, 4):
            from_history = dominant_fractions(plain, digits=digits)
            paths = [
                dominant_fractions(live, digits=digits),
                dominant_fractions(live.cost_records, digits=digits),
                dominant_fractions(machine_cost_records(plain), digits=digits),
            ]
            assert len(from_history) >= 1
            for other in paths:
                assert list(other.items()) == list(from_history.items())
