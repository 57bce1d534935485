"""One batched winner draw per phase equals the per-cell scalar draws.

A shared-memory machine without a winner policy draws the winners of all
of a phase's collided cells with one ``Generator.integers(0, bounds)``
call (``SharedMemoryMachine._pick_winners``).  Every seeded run stays
bit-identical to the historical one scalar ``integers(0, k)`` per cell
only if the batched call yields the same numbers *and* leaves the
generator in the same state for the next phase; this pins both.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.seeding import derive_rng

MAX_BOUND = 2**40


def _generated_bounds(length, seed, top):
    """``length`` bounds in ``[1, 2**top]``; long lists without
    overrunning hypothesis' example buffer."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 2**top, size=length, endpoint=True).tolist()


BOUNDS = st.one_of(
    st.lists(st.integers(1, MAX_BOUND), min_size=1, max_size=60),
    st.builds(
        _generated_bounds,
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
    ),
)


@given(BOUNDS, st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_batched_draw_equals_scalar_loop(bounds, seed):
    scalar = derive_rng(seed)
    batched = derive_rng(seed)
    expected = [int(scalar.integers(0, k)) for k in bounds]
    assert batched.integers(0, bounds).tolist() == expected
    assert batched.bit_generator.state == scalar.bit_generator.state
    # ... so the next phase's draws agree too.
    assert int(batched.integers(0, 7)) == int(scalar.integers(0, 7))
