"""Bit-vector problems: Parity and OR."""

from __future__ import annotations

from typing import List, Sequence

from repro.util.seeding import RngLike, derive_rng

__all__ = ["gen_bits", "verify_parity", "verify_or"]


def gen_bits(n: int, density: float = 0.5, seed: RngLike = None) -> List[int]:
    """n iid Bernoulli(density) bits.

    ``density=0.5`` is the uniform distribution Theorem 3.2's adversary
    uses; small densities exercise the sparse regimes of the OR bound's
    ``H_i`` distributions.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0,1], got {density}")
    rng = derive_rng(seed)
    return (rng.random(n) < density).astype(int).tolist()


def verify_parity(bits: Sequence[int], answer: int) -> bool:
    """True iff ``answer`` is the parity of ``bits``."""
    if answer not in (0, 1):
        return False
    return answer == (sum(map(int, bits)) & 1)


def verify_or(bits: Sequence[int], answer: int) -> bool:
    """True iff ``answer`` is the OR of ``bits``."""
    if answer not in (0, 1):
        return False
    return answer == (1 if any(int(b) == 1 for b in bits) else 0)
