"""Length-prefixed pickle framing: the one worker protocol.

One frame = a 4-byte big-endian payload length followed by a pickled
tuple whose first element names the frame type.  Every worker speaks
it — a forked local worker over its socketpair, a remote worker over
TCP — so a task neither knows nor cares where it runs:

==========  =========  =================================================
frame       direction  payload
==========  =========  =================================================
``hello``   w -> s     ``("hello", name, meta)`` — register (remote
                       workers); ``meta`` carries ``pid``/``host`` for
                       the fleet view
``welcome`` s -> w     ``("welcome", worker_id, generation)``
``evict``   s -> w     ``("evict", reason)`` — a newer registration with
                       the same name superseded this connection
``task``    s -> w     ``("task", key, call[, trace])`` — ``call`` is
                       ``pickle.dumps((fn, kwargs))``, unpickled by the
                       worker's task thread; ``trace`` (optional 4th
                       field) is the dispatching span's
                       ``{"trace_id", "span_id"}`` context, present only
                       on traced runs
``ok``      w -> s     ``("ok", key, value, wall[, spans])`` — ``spans``
                       (optional 5th field) carries the worker's finished
                       ``repro.trace/1`` span dicts back for the
                       scheduler-side sink
``error``   w -> s     ``("error", key, "Type: message", wall[, spans])``
``ping``    s -> w     ``("ping", seq, t_mono)`` — heartbeat (remote)
``pong``    w -> s     ``("pong", seq, t_mono)`` — echo of the ping
``stop``    s -> w     ``("stop",)`` — drain and exit
==========  =========  =================================================

Framing errors are :class:`FrameError`; a peer that closed the socket
(cleanly at a frame boundary or torn mid-frame) raises
:class:`ConnectionClosed`, which the pool and worker map onto their
lost-connection paths.  ``MAX_FRAME_BYTES`` bounds what one frame may
carry so a corrupt length prefix cannot make a reader allocate
gigabytes.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Tuple

__all__ = [
    "FrameError",
    "ConnectionClosed",
    "MAX_FRAME_BYTES",
    "FRAME_TYPES",
    "send_frame",
    "recv_frame",
    "recv_frame_bytes",
    "frame_type",
    "encode_frame",
    "decode_frame",
]

#: Upper bound on a single frame's pickled payload.  Task outcomes are
#: JSON-sized dicts; anything bigger is a protocol violation, not data.
MAX_FRAME_BYTES = 64 << 20

#: Every frame type either side may legitimately send.
FRAME_TYPES = (
    "hello", "welcome", "evict", "task", "ok", "error", "ping", "pong", "stop",
)

_HEADER = struct.Struct(">I")


class FrameError(RuntimeError):
    """A malformed frame: bad length prefix, unpicklable payload, bad shape."""


class ConnectionClosed(FrameError):
    """The peer closed the connection (at or inside a frame boundary)."""


def encode_frame(frame: Tuple[Any, ...]) -> bytes:
    """Serialize ``frame`` to its wire bytes (header + pickled payload)."""
    payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Tuple[Any, ...]:
    """Unpickle one frame payload and validate its shape."""
    try:
        frame = pickle.loads(payload)
    except Exception as exc:  # pickle raises a small zoo of types
        raise FrameError(f"unpicklable frame payload: {exc}") from exc
    frame_type(frame)  # shape validation
    return frame


def send_frame(sock: socket.socket, frame: Tuple[Any, ...]) -> None:
    """Write one frame to ``sock`` (``sendall``: whole frame or exception)."""
    sock.sendall(encode_frame(frame))


def enable_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on ``sock``; every fabric connection calls this.

    The protocol is small request/response frames — with Nagle on, each
    task/result pair stalls up to ~40ms against the peer's delayed ACK,
    which dominates short tasks and flattens the host-scaling curve in
    ``benchmarks/bench_sched.py``.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):
        pass  # non-TCP socket (tests use socketpairs) or exotic platform


def _recv_exact(sock: socket.socket, n: int, *, boundary: bool) -> bytes:
    """Read exactly ``n`` bytes; raise :class:`ConnectionClosed` on EOF.

    ``boundary`` marks whether EOF *before any byte* is a clean close
    (peer finished between frames) — it still raises, but with a message
    distinguishing it from a frame torn mid-read.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if boundary and remaining == n:
                raise ConnectionClosed("peer closed the connection")
            raise ConnectionClosed(
                f"connection torn mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame_bytes(sock: socket.socket) -> bytes:
    """Read one frame's raw payload bytes (the proxy's forwarding unit)."""
    header = _recv_exact(sock, _HEADER.size, boundary=True)
    (length,) = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"bad frame length {length}")
    return _recv_exact(sock, length, boundary=False)


def recv_frame(sock: socket.socket) -> Tuple[Any, ...]:
    """Read and decode one frame from ``sock``."""
    return decode_frame(recv_frame_bytes(sock))


def frame_type(frame: Any) -> str:
    """The validated type tag of a decoded frame."""
    if (
        not isinstance(frame, tuple)
        or not frame
        or not isinstance(frame[0], str)
    ):
        raise FrameError(f"frame must be a non-empty tuple, got {type(frame).__name__}")
    if frame[0] not in FRAME_TYPES:
        raise FrameError(f"unknown frame type {frame[0]!r}")
    return frame[0]
