"""Bit-problem generators and verifiers."""

import pytest

from repro.problems import gen_bits, verify_or, verify_parity


class TestGenBits:
    def test_length(self):
        assert len(gen_bits(37, seed=0)) == 37

    def test_reproducible(self):
        assert gen_bits(20, seed=5) == gen_bits(20, seed=5)

    def test_density_extremes(self):
        assert gen_bits(30, density=0.0, seed=1) == [0] * 30
        assert gen_bits(30, density=1.0, seed=1) == [1] * 30

    def test_density_validated(self):
        with pytest.raises(ValueError):
            gen_bits(4, density=-0.1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gen_bits(-1)

    @pytest.mark.parametrize("n", [0, 1, 7, 256, 1000])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 0.93, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_same_bits_as_the_per_element_conversion(self, n, density, seed):
        from repro.util.seeding import derive_rng

        expected = [int(b) for b in (derive_rng(seed).random(n) < density)]
        got = gen_bits(n, density=density, seed=seed)
        assert got == expected and set(map(type, got)) <= {int}


class TestVerifiers:
    def test_parity(self):
        assert verify_parity([1, 0, 1, 1], 1)
        assert not verify_parity([1, 0, 1, 1], 0)
        assert not verify_parity([1], 2)

    def test_or(self):
        assert verify_or([0, 0, 1], 1)
        assert verify_or([0, 0], 0)
        assert not verify_or([0, 0], 1)
        assert not verify_or([1], 7)

    @pytest.mark.parametrize(
        "bits",
        [
            [1, 0, 1, 1], [True, False, True], [True, 1, 0], [1.0, 0.0, 1.0],
            [0.5, 1.5, 1.0], [], (1, 0, 1), range(3), [1, 0, 1.9],
            "numpy-int-list", "numpy-array",
        ],
    )
    @pytest.mark.parametrize("answer", [0, 1])
    def test_parity_matches_the_per_element_conversion(self, bits, answer):
        import numpy as np

        if bits == "numpy-int-list":
            bits = list(np.array([1, 0, 1, 1]))
        elif bits == "numpy-array":
            bits = np.array([1, 1, 0])
        expected = answer == (sum(int(b) for b in bits) & 1)
        assert verify_parity(bits, answer) is expected
