"""WriteEntry discrimination with tuple-like payloads (bugfix-sweep audit).

A pending write is stored either as a bare value (bulk ``write_block``
path) or as a ``(proc, value)`` pair (scalar ``write`` path), and
``_first_writer`` / collision resolution must tell them apart.  The
hazard: a *user payload that is itself a 2-tuple of ints* is shape-
identical to the ``(proc, value)`` encoding.  The audit found the
discrimination sound — block writes are tracked via ``_block_origins``
rather than by sniffing the stored value — and these properties pin
that: tuple payloads round-trip bit-exactly through both the scalar and
block write paths, under collisions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QSM, SQSM, QSMParams, SQSMParams

payloads = st.one_of(
    # The adversarial shape: (small-int, small-int) looks exactly like a
    # (proc, value) pair.
    st.tuples(st.integers(0, 7), st.integers(-5, 5)),
    st.tuples(st.integers(0, 7), st.integers(-5, 5), st.integers(0, 3)),
    st.tuples(),
    st.integers(-5, 5),
)


def _make():
    return QSM(QSMParams(g=2), seed=13)


class TestTuplePayloadRoundTrip:
    @given(payload=payloads, addr=st.integers(0, 15), proc=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_scalar_write_round_trips(self, payload, addr, proc):
        machine = _make()
        with machine.phase() as ph:
            ph.write(proc, addr, payload)
        with machine.phase() as ph:
            handle = ph.read(0, addr)
        assert handle.value == payload
        assert type(handle.value) is type(payload)

    @given(
        payload_a=payloads,
        payload_b=payloads,
        base=st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_write_round_trips(self, payload_a, payload_b, base):
        machine = _make()
        with machine.phase() as ph:
            ph.write_block(1, [(base, payload_a), (base + 1, payload_b)])
        with machine.phase() as ph:
            handle = ph.read_block(2, [base, base + 1])
        assert list(handle.values) == [payload_a, payload_b]
        assert [type(v) for v in handle.values] == [
            type(payload_a),
            type(payload_b),
        ]

    @given(
        payload=st.tuples(st.integers(0, 7), st.integers(-5, 5)),
        addr=st.integers(0, 15),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_colliding_tuple_writes_pick_a_real_payload(self, payload, addr, seed):
        # Scalar write vs block write of tuple payloads colliding on one
        # cell: whichever wins, the surviving value must be one of the two
        # user payloads — never a (proc, value) wrapper or an unwrapped
        # member of one.
        other = (payload[0] + 1, payload[1] - 1)
        machine = SQSM(SQSMParams(g=2), seed=seed)
        with machine.phase() as ph:
            ph.write(3, addr, payload)
            ph.write_block(5, [(addr, other)])
        with machine.phase() as ph:
            handle = ph.read(0, addr)
        assert handle.value in (payload, other)
