"""Shared algorithm plumbing: RunResult, Allocator, fan-in selection."""

import pytest

from repro.algorithms.common import (
    Allocator,
    CostMeter,
    RunResult,
    bsp_fanin,
    check_bits,
    default_tree_fanin,
    model_name,
)
from repro.core import BSP, GSM, QSM, SQSM, BSPParams, GSMParams, QSMParams, SQSMParams


def _loop_check_bits(bits, problem):
    """The per-element check ``check_bits`` must behave exactly like."""
    out = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"{problem} input must be 0/1 bits, got {b!r}")
        out.append(int(b))
    if not out:
        raise ValueError(f"{problem} of an empty input is undefined here; pass >= 1 bit")
    return out


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", value, [type(b) for b in value]


class TestCheckBits:
    @pytest.mark.parametrize(
        "bits",
        [
            [1, 0, 1, 1], (0, 1), [0] * 9, [True, 0], [1.0, 0], [0, 1, 2, 1],
            [1, "x"], [0, -1], [0, 1, 1.5], [1, None], [], (), [7], range(2),
        ],
    )
    @pytest.mark.parametrize("problem", ["parity", "OR"])
    def test_matches_the_per_element_loop(self, bits, problem):
        assert _outcome(check_bits, bits, problem) == _outcome(
            _loop_check_bits, bits, problem
        )

    def test_returns_a_new_list(self):
        bits = [1, 0]
        out = check_bits(bits, "parity")
        out.append(1)
        assert bits == [1, 0]

    def test_algorithms_raise_the_loops_error(self):
        from repro.algorithms.or_ import or_tree_writes
        from repro.algorithms.parity import parity_tree

        for algo, problem in ((parity_tree, "parity"), (or_tree_writes, "OR")):
            for bits in ([0, 1, 3, "x"], []):
                expected = _outcome(_loop_check_bits, bits, problem)
                with pytest.raises(ValueError) as info:
                    algo(QSM(), bits)
                assert ("error", str(info.value)) == expected


class TestAllocator:
    def test_bump(self):
        a = Allocator()
        assert a.alloc(10) == 0
        assert a.alloc(5) == 10
        assert a.watermark == 15

    def test_base_offset(self):
        a = Allocator(base=100)
        assert a.alloc(1) == 100

    def test_zero_size(self):
        a = Allocator()
        assert a.alloc(0) == 0
        assert a.watermark == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Allocator().alloc(-1)
        with pytest.raises(ValueError):
            Allocator(base=-1)


class TestCostMeter:
    def test_measures_delta(self):
        m = QSM(QSMParams(g=2))
        with m.phase() as ph:
            ph.write(0, 0, 1)
        meter = CostMeter(m)
        with m.phase() as ph:
            ph.write(0, 1, 2)
        r = meter.result("answer", note="x")
        assert r.time == 2.0
        assert r.phases == 1
        assert r.extra == {"note": "x"}
        assert r.value == "answer"

    def test_bsp_counts_supersteps(self):
        b = BSP(2, BSPParams(g=1, L=3))
        meter = CostMeter(b)
        with b.superstep() as ss:
            ss.local(0, 1)
        assert meter.result(None).phases == 1


class TestModelName:
    def test_names(self):
        assert model_name(QSM()) == "QSM"
        assert model_name(SQSM()) == "s-QSM"
        assert model_name(GSM()) == "GSM"
        assert model_name(BSP(1)) == "BSP"

    def test_unknown_rejected(self):
        with pytest.raises(TypeError):
            model_name(object())


class TestFaninSelection:
    def test_qsm_contention_cheap_uses_g(self):
        assert default_tree_fanin(QSM(QSMParams(g=8)), contention_cheap=True) == 8

    def test_qsm_read_combining_uses_2(self):
        assert default_tree_fanin(QSM(QSMParams(g=8))) == 2

    def test_sqsm_always_2(self):
        assert default_tree_fanin(SQSM(SQSMParams(g=8)), contention_cheap=True) == 2

    def test_gsm_uses_min_alpha_beta(self):
        assert default_tree_fanin(GSM(GSMParams(alpha=4, beta=6))) == 4

    def test_bsp_fanin_L_over_g(self):
        assert bsp_fanin(BSP(4, BSPParams(g=2, L=16))) == 8

    def test_bsp_fanin_floor_two(self):
        assert bsp_fanin(BSP(4, BSPParams(g=4, L=4))) == 2

    def test_bsp_fanin_type_checked(self):
        with pytest.raises(TypeError):
            bsp_fanin(QSM())
