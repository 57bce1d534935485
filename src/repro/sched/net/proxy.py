"""The chaos proxy: a TCP shim that injects frame-level network faults.

``ChaosProxy`` listens on its own port; workers dial *it* instead of the
scheduler, and it dials the real :class:`~repro.sched.pool.WorkerPool`
port upstream.  Each worker connection becomes a *link*
with two pump threads (``c2s`` worker->scheduler, ``s2c`` back).  A pump
reads one whole frame at a time (:func:`~repro.sched.net.frames.\
recv_frame_bytes` — the length-prefixed payload, forwarded verbatim so
the proxy can never corrupt what it forwards), peeks the frame type,
asks the :class:`~repro.faults.net.NetFaultPlan` for a verdict, and
acts on it: forward, drop, hold-then-forward (``delay``), forward twice
(``duplicate``), close both sockets (``reconnect``), or drop everything
while a ``partition`` window is open.

Every frame's verdict is one JSONL line in the fault log — the
frame-level record the chaos harness and the CI ``chaos-net`` job
archive as an artifact::

    {"t": <epoch>, "link": 3, "dir": "c2s", "frame": "ok",
     "seq": 117, "action": "blackhole", "fault": "partition", "case": "..."}

The proxy is fault-transparent when the plan is empty, and EOF
propagates: when either side of a link closes, both sockets close, so a
scheduler that writes a worker off genuinely disconnects it (the worker
then redials through the proxy — re-registration during a partition
window fails until the window heals, because the ``hello`` frames are
blackholed too).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import IO, Any, Dict, List, Optional, Tuple

from repro.faults.net import NetFaultPlan
from repro.sched.net.frames import (
    ConnectionClosed,
    FrameError,
    _HEADER,
    decode_frame,
    enable_nodelay,
    recv_frame_bytes,
)
from repro.util.clock import wallclock

__all__ = ["ChaosProxy"]


class _Link:
    """One proxied worker connection: downstream (worker) + upstream (pool)."""

    __slots__ = ("id", "down", "up", "closed")

    def __init__(self, link_id: int, down: socket.socket, up: socket.socket) -> None:
        self.id = link_id
        self.down = down
        self.up = up
        self.closed = False

    def close(self) -> None:
        self.closed = True
        for sock in (self.down, self.up):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A frame-forwarding TCP proxy with scheduled fault injection.

    Parameters
    ----------
    upstream:
        The real scheduler's ``(host, port)`` — usually
        ``pool.address``.
    plan:
        The :class:`~repro.faults.net.NetFaultPlan` consulted per frame
        (default: an empty plan — fully transparent).
    log_path:
        Append-mode JSONL file receiving one line per frame verdict.
    log_label:
        A ``"case"`` tag stamped on every log line (the harness sets it
        to the chaos case name so one log file serves a whole suite).
    host, port:
        Where the proxy listens (``port=0``: ephemeral; read
        :attr:`address` back).
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        plan: Optional[NetFaultPlan] = None,
        log_path: Optional[str] = None,
        log_label: str = "",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = (upstream[0], int(upstream[1]))
        self.plan = plan if plan is not None else NetFaultPlan()
        self.log_label = log_label
        # Line-buffered: every fault verdict reaches the OS as soon as
        # its line is complete, so a SIGKILLed chaos run (the CI leg
        # kills the whole process tree) keeps its log tail instead of
        # losing whatever sat in a default-sized stdio buffer.
        self._log: Optional[IO[str]] = (
            open(log_path, "a", buffering=1) if log_path else None
        )
        self._log_lock = threading.Lock()
        self._log_seq = 0
        self._links: List[_Link] = []
        self._links_lock = threading.Lock()
        self._next_link = 1
        self._closed = False
        self._listener = socket.create_server((host, port), backlog=16)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="chaos-proxy-accept"
        )
        self._accept_thread.start()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` workers should dial."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._links_lock:
            links = list(self._links)
        for link in links:
            link.close()
        self._accept_thread.join(timeout=2.0)
        if self._log is not None:
            with self._log_lock:
                self._log.close()
                self._log = None

    def partition(self, duration_s: float) -> None:
        """Open a partition window on the plan right now (CLI/CI hook)."""
        self.plan.partition(duration_s)

    @property
    def log_lines(self) -> int:
        """Frame-verdict lines written so far (the harness's tail check)."""
        with self._log_lock:
            return self._log_seq

    @property
    def live_links(self) -> int:
        with self._links_lock:
            return sum(1 for link in self._links if not link.closed)

    # -- internals ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                down, _ = self._listener.accept()
            except OSError:
                return
            try:
                up = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                down.close()
                continue
            enable_nodelay(down)
            enable_nodelay(up)
            with self._links_lock:
                link = _Link(self._next_link, down, up)
                self._next_link += 1
                self._links.append(link)
            for direction, src, dst in (
                ("c2s", down, up), ("s2c", up, down)
            ):
                threading.Thread(
                    target=self._pump, args=(link, direction, src, dst),
                    daemon=True, name=f"chaos-proxy-{link.id}-{direction}",
                ).start()

    def _pump(
        self,
        link: _Link,
        direction: str,
        src: socket.socket,
        dst: socket.socket,
    ) -> None:
        try:
            while not link.closed:
                payload = recv_frame_bytes(src)
                try:
                    frame_kind = decode_frame(payload)[0]
                except FrameError:
                    frame_kind = "?"  # forward anyway; the peer will complain
                action, fault = self.plan.decide(direction, frame_kind)
                self._log_line(link, direction, frame_kind, action, fault)
                wire = _HEADER.pack(len(payload)) + payload
                if action in ("drop", "blackhole"):
                    continue
                if action == "reconnect":
                    link.close()
                    return
                if action == "delay":
                    time.sleep(fault.delay_s)
                dst.sendall(wire)
                if action == "duplicate":
                    dst.sendall(wire)
        except (ConnectionClosed, FrameError, OSError):
            pass
        finally:
            link.close()

    def _log_line(
        self,
        link: _Link,
        direction: str,
        frame_kind: str,
        action: str,
        fault: Optional[Any],
    ) -> None:
        if self._log is None:
            return
        row: Dict[str, Any] = {
            "t": round(wallclock(), 6),
            "link": link.id,
            "dir": direction,
            "frame": frame_kind,
            "action": action,
        }
        if fault is not None:
            row["fault"] = fault.kind
        elif action == "blackhole":
            row["fault"] = "partition"
        if self.log_label:
            row["case"] = self.log_label
        # One lock window covers sequence allocation AND the write:
        # splitting them (the old shape) let two pump threads allocate
        # seq N and N+1 and then write in the opposite order, so "seq"
        # no longer matched file order.  fsync per line pushes the frame
        # verdict to disk before the fault it describes can kill
        # anything — the harness asserts the tail survives a SIGKILL.
        with self._log_lock:
            if self._log is not None:
                self._log_seq += 1
                row["seq"] = self._log_seq
                self._log.write(json.dumps(row) + "\n")
                self._log.flush()
                try:
                    os.fsync(self._log.fileno())
                except (OSError, ValueError):
                    pass  # closed mid-write or a non-file sink
