"""Empty-superstep / empty-phase floors (bugfix-sweep audit, pinned).

``SuperstepRecord.h`` floors at **0** while ``PhaseRecord.m_rw`` and
``PhaseRecord.kappa`` floor at **1** — an intentional asymmetry from the
paper's definitions (a QSM phase always charges at least one r/w slot;
a BSP superstep that routes nothing has ``h = 0`` and is charged the
latency floor ``L``).  The sweep audited every consumer (no division by
``h`` exists anywhere), so the deliverable is pinning the semantics:
an empty superstep costs exactly ``L`` with dominant term ``"L"``.
"""

from repro.core import BSP, QSM, BSPParams, QSMParams
from repro.core.cost import bsp_cost_terms, bsp_superstep_cost, qsm_cost_terms
from repro.core.phase import PhaseRecord, SuperstepRecord
from repro.obs.records import dominant_of


def _empty_superstep_record():
    return SuperstepRecord(
        index=0, work_per_proc={}, sent_per_proc={}, received_per_proc={}
    )


class TestEmptySuperstepFloors:
    def test_h_floors_at_zero(self):
        assert _empty_superstep_record().h == 0

    def test_empty_phase_m_rw_and_kappa_floor_at_one(self):
        rec = PhaseRecord(
            index=0,
            reads_per_proc={},
            writes_per_proc={},
            ops_per_proc={},
            read_queue={},
            write_queue={},
        )
        assert rec.m_rw == 1
        assert rec.kappa == 1

    def test_empty_superstep_costs_exactly_L(self):
        rec = _empty_superstep_record()
        params = BSPParams(g=2.0, L=8.0)
        assert bsp_superstep_cost(rec, params) == 8.0

    def test_empty_superstep_dominant_term_is_L(self):
        rec = _empty_superstep_record()
        terms = bsp_cost_terms(rec, BSPParams(g=2.0, L=8.0))
        assert terms == {"L": 8.0, "g*h": 0.0, "w": 0.0}
        assert dominant_of(terms) == "L"

    def test_empty_phase_charges_grw_floor_not_zero(self):
        # The m_rw floor means an empty QSM phase still charges g*1.
        rec = PhaseRecord(
            index=0,
            reads_per_proc={},
            writes_per_proc={},
            ops_per_proc={},
            read_queue={},
            write_queue={},
        )
        terms = qsm_cost_terms(rec, QSMParams(g=3.0))
        assert terms["g*m_rw"] == 3.0
        assert terms["kappa"] == 1.0


class TestEmptySuperstepEndToEnd:
    def test_committed_empty_superstep(self):
        bsp = BSP(4, BSPParams(g=2.0, L=8.0), record_costs=True)
        with bsp.superstep():
            pass
        (rec,) = bsp.history
        assert rec.h == 0
        assert rec.w == 0
        assert bsp.step_costs == [8.0]
        assert bsp.time == 8.0
        (cost_rec,) = bsp.cost_records
        assert cost_rec.cost == 8.0
        assert cost_rec.dominant == "L"
        assert all(bsp.inbox(i) == [] for i in range(4))

    def test_committed_empty_phase(self):
        machine = QSM(QSMParams(g=3.0), record_costs=True)
        with machine.phase():
            pass
        (rec,) = machine.history
        assert rec.m_rw == 1
        assert rec.kappa == 1
        assert machine.phase_costs == [3.0]
        (cost_rec,) = machine.cost_records
        assert cost_rec.dominant == "g*m_rw"
