"""The MPC cost machine: params, round charges, observability, chaos hooks."""

import pytest

from repro.core import BSP, MPCParams
from repro.faults.plan import random_fault_plan
from repro.models import MPC


class TestMPCParams:
    def test_defaults(self):
        assert MPCParams().s == 4.0

    def test_fractional_s_allowed(self):
        # s = n^epsilon is a real in the literature; 1 is the floor.
        assert MPCParams(s=1.5).s == 1.5
        assert MPCParams(s=1.0).s == 1.0

    @pytest.mark.parametrize("bad", [0.5, 0, -2, True, "4"])
    def test_rejects_invalid_s(self, bad):
        with pytest.raises((ValueError, TypeError)):
            MPCParams(s=bad)

    def test_frozen(self):
        prm = MPCParams()
        with pytest.raises(Exception):
            prm.s = 8.0


class TestBitInputs:
    def test_inputs_must_be_bits(self):
        from repro.algorithms.mpc import or_mpc, parity_mpc

        with pytest.raises(ValueError, match=r"^parity input must be 0/1 bits, got 1\.7$"):
            parity_mpc(MPC(2), [1, 1.7])
        with pytest.raises(ValueError, match=r"^OR input must be 0/1 bits, got 2$"):
            or_mpc(MPC(2), [0, 2])


class TestRoundCharge:
    def test_is_a_bsp(self):
        # MPC rides the superstep substrate: one round == one superstep.
        assert issubclass(MPC, BSP)
        assert MPC(2).model_label == "MPC"

    def test_round_within_capacity_costs_one(self):
        machine = MPC(4, MPCParams(s=4.0))
        with machine.superstep() as ss:
            for dst in range(1, 4):
                ss.send(0, dst, "x")  # h = 3 <= s
        assert machine.time == 1.0

    def test_round_beyond_capacity_charges_h_over_s(self):
        machine = MPC(2, MPCParams(s=2.0))
        with machine.superstep() as ss:
            for i in range(6):
                ss.send(0, 1, i)  # h = 6, s = 2
        assert machine.time == 3.0

    def test_local_work_is_free(self):
        # MPC is communication-bounded: local ops never raise the charge.
        machine = MPC(2, MPCParams(s=4.0))
        with machine.superstep() as ss:
            ss.local(0, 1000)
        assert machine.time == 1.0

    def test_cost_record_terms_and_model_tag(self):
        machine = MPC(2, MPCParams(s=2.0), record_costs=True)
        with machine.superstep() as ss:
            for i in range(4):
                ss.send(0, 1, i)
        (rec,) = machine.cost_records
        assert rec.model == "MPC"
        assert rec.terms == {"round": 1.0, "h/s": 2.0}
        assert rec.dominant == "h/s"
        assert rec.cost == max(rec.terms.values())

    def test_round_floor_dominates_on_tie(self):
        machine = MPC(2, MPCParams(s=4.0), record_costs=True)
        with machine.superstep() as ss:
            for i in range(4):
                ss.send(0, 1, i)  # h/s == 1.0 exactly
        (rec,) = machine.cost_records
        assert rec.dominant == "round"


class TestObservability:
    def test_rounds_counts_supersteps(self):
        machine = MPC(2)
        for _ in range(3):
            with machine.superstep() as ss:
                ss.send(0, 1, "m")
        assert machine.rounds == 3

    def test_max_message_volume_tracks_largest_h(self):
        machine = MPC(2, MPCParams(s=16.0))
        with machine.superstep() as ss:
            ss.send(0, 1, "a")
        with machine.superstep() as ss:
            for i in range(5):
                ss.send(0, 1, i)
        assert machine.max_message_volume == 5

    def test_empty_machine_volume_zero(self):
        assert MPC(2).max_message_volume == 0


class TestChaosHooks:
    def test_fault_plan_attaches_and_fires(self):
        plan = random_fault_plan("bsp", seed=13, max_faults=2, procs=4)
        machine = MPC(4, MPCParams(s=4.0), fault_plan=plan)
        for _ in range(4):
            with machine.superstep() as ss:
                for dst in range(1, 4):
                    ss.send(0, dst, "payload")
        # The plan attached; any fired events carry the BSP event schema.
        for event in machine.fault_events:
            assert set(event.to_dict()) >= {"step", "kind"}
