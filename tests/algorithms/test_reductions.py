"""Size-preserving reductions from parity (Section 3 closing remark)."""

import pytest

from repro.algorithms.reductions import (
    parity_via_list_ranking,
    parity_via_sorting,
    parity_via_sorting_bsp,
)
from repro.core import BSP, QSM, SQSM, BSPParams, QSMParams, SQSMParams
from repro.problems import gen_bits, verify_parity


class TestParityViaListRanking:
    @pytest.mark.parametrize("n", [1, 2, 8, 33, 100])
    def test_correct(self, n):
        bits = gen_bits(n, seed=n)
        r = parity_via_list_ranking(QSM(QSMParams(g=2)), bits)
        assert verify_parity(bits, r.value)

    def test_reports_total_ones(self):
        bits = [1, 0, 1, 1]
        r = parity_via_list_ranking(QSM(), bits)
        assert r.extra["total_ones"] == 3

    def test_all_zero(self):
        assert parity_via_list_ranking(QSM(), [0] * 16).value == 0

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            parity_via_list_ranking(QSM(), [0, 3])

    @pytest.mark.parametrize("bad", [1.7, "1"])
    def test_rejects_non_bits_by_value(self, bad):
        with pytest.raises(ValueError, match=f"^parity input must be 0/1 bits, got {bad!r}$"):
            parity_via_list_ranking(QSM(), [0, bad])


class TestParityViaSorting:
    @pytest.mark.parametrize("n", [1, 2, 9, 50, 120])
    def test_correct(self, n):
        bits = gen_bits(n, seed=n * 3)
        r = parity_via_sorting(SQSM(SQSMParams(g=2)), bits)
        assert verify_parity(bits, r.value)

    def test_all_ones(self):
        bits = [1] * 9
        r = parity_via_sorting(QSM(), bits)
        assert r.value == 1 and r.extra["total_ones"] == 9

    def test_binary_search_decode_cost_is_logarithmic(self):
        # The decode adds O(log n) phases on top of the sort.
        bits = [0] * 256
        m = QSM(QSMParams(g=1))
        before_phases = m.phase_count
        parity_via_sorting(m, bits)
        # Sorting uses O(sqrt n)-ish phases here; the decode adds <= log n + 2.
        assert m.phase_count - before_phases < 256


class TestParityViaSortingBSP:
    @pytest.mark.parametrize("n,p", [(8, 2), (40, 4), (100, 8)])
    def test_correct(self, n, p):
        bits = gen_bits(n, seed=n + p)
        r = parity_via_sorting_bsp(BSP(p, BSPParams(g=2, L=8)), bits)
        assert verify_parity(bits, r.value)

    def test_single_component(self):
        bits = gen_bits(12, seed=1)
        r = parity_via_sorting_bsp(BSP(1, BSPParams(g=1, L=1)), bits)
        assert verify_parity(bits, r.value)


class TestSizePreservation:
    def test_list_instance_size_equals_bit_count(self):
        # The reduction builds an n-node list for n bits: this is what makes
        # the parity lower bound transfer.
        bits = gen_bits(17, seed=2)
        m = QSM(QSMParams(g=1))
        parity_via_list_ranking(m, bits)
        # The list-rank state array occupies exactly n cells at the base.
        state_cells = [a for a in range(17)]
        assert all(m.peek(a) is not None for a in state_cells)
