"""Cost-term type stability: every term value is a float (bugfix sweep).

``params.g * record.m_rw`` used to stay ``int`` when ``g`` was spelled as
an int while ``m_op``/``kappa`` were coerced to float — so two numerically
identical runs could serialize different JSON and compare unequal after a
round-trip.  Every ``*_cost_terms`` mapping and every ``*_phase_cost``
return is now normalized to ``float``.
"""

import json

import pytest

from repro.core import (
    BSP,
    GSM,
    QSM,
    QSMGD,
    SQSM,
    BSPParams,
    GSMParams,
    QSMParams,
    SQSMParams,
)
from repro.core.cost import (
    bsp_cost_terms,
    bsp_superstep_cost,
    gsm_cost_terms,
    gsm_phase_cost,
    qsm_cost_terms,
    qsm_phase_cost,
    sqsm_cost_terms,
    sqsm_phase_cost,
)
from repro.core.phase import PhaseRecord, SuperstepRecord
from repro.core.qsm_gd import QSMGDParams, qsm_gd_cost_terms, qsm_gd_phase_cost

RECORD = PhaseRecord(
    index=0,
    reads_per_proc={0: 3, 1: 2},
    writes_per_proc={0: 1},
    ops_per_proc={1: 5},
    read_queue={4: 2, 5: 1},
    write_queue={9: 1},
)
SS_RECORD = SuperstepRecord(
    index=0,
    work_per_proc={0: 4},
    sent_per_proc={0: 3},
    received_per_proc={1: 3},
)

# Integer-spelled gap parameters: the historically offending case.
TERM_CASES = [
    pytest.param(lambda: qsm_cost_terms(RECORD, QSMParams(g=2)), id="qsm"),
    pytest.param(
        lambda: qsm_cost_terms(
            RECORD, QSMParams(g=2, unit_time_concurrent_reads=True)
        ),
        id="qsm-utcr",
    ),
    pytest.param(lambda: sqsm_cost_terms(RECORD, SQSMParams(g=3)), id="sqsm"),
    pytest.param(
        lambda: gsm_cost_terms(RECORD, GSMParams(alpha=2, beta=2)), id="gsm"
    ),
    pytest.param(
        lambda: qsm_gd_cost_terms(RECORD, QSMGDParams(g=2, d=3)), id="qsm-gd"
    ),
    pytest.param(
        lambda: bsp_cost_terms(SS_RECORD, BSPParams(g=2, L=4)), id="bsp"
    ),
]

COST_CASES = [
    pytest.param(lambda: qsm_phase_cost(RECORD, QSMParams(g=2)), id="qsm"),
    pytest.param(lambda: sqsm_phase_cost(RECORD, SQSMParams(g=3)), id="sqsm"),
    pytest.param(
        lambda: gsm_phase_cost(RECORD, GSMParams(alpha=2, beta=2)), id="gsm"
    ),
    pytest.param(
        lambda: qsm_gd_phase_cost(RECORD, QSMGDParams(g=2, d=3)), id="qsm-gd"
    ),
    pytest.param(
        lambda: bsp_superstep_cost(SS_RECORD, BSPParams(g=2, L=4)), id="bsp"
    ),
]


class TestTermsAreFloat:
    @pytest.mark.parametrize("terms", TERM_CASES)
    def test_every_term_value_is_float(self, terms):
        assert all(type(v) is float for v in terms().values()), terms()

    @pytest.mark.parametrize("cost", COST_CASES)
    def test_cost_is_float(self, cost):
        assert type(cost()) is float

    @pytest.mark.parametrize("terms", TERM_CASES)
    def test_int_and_float_parameter_spellings_serialize_identically(self, terms):
        # The regression that motivated the fix: g=2 vs g=2.0 must produce
        # byte-identical JSON.
        assert json.dumps(terms()) == json.dumps(
            {k: float(v) for k, v in terms().items()}
        )


class TestLiveCostRecords:
    def test_live_term_dicts_are_floats(self):
        machines = [
            QSM(QSMParams(g=2), record_costs=True),
            SQSM(SQSMParams(g=3), record_costs=True),
            GSM(GSMParams(alpha=2), record_costs=True),
            QSMGD(QSMGDParams(g=2, d=3), record_costs=True),
        ]
        for machine in machines:
            with machine.phase() as ph:
                ph.write(0, 3, 10)
                ph.write_cols(1, range(4, 9), [1, 2, 3, 4, 5])
                ph.local(2, 6)
        bsp = BSP(4, BSPParams(g=2, L=4), record_costs=True)
        with bsp.superstep() as ss:
            ss.send(0, 1, "x")
            ss.send(2, 1, "y")
        for machine in [*machines, bsp]:
            (rec,) = machine.cost_records
            assert all(type(v) is float for v in rec.terms.values())
            assert rec.cost == max(rec.terms.values())
