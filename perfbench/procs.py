"""Process bookkeeping for the benchmark: spawn, stop, reap, and /proc reads.

Every process the benchmark starts is registered in a pid file under the
work directory.  A run refuses to start while a process listed there from
an earlier run is still alive, and a run removes the file only after it
has reaped everything it started.  Services are stopped with SIGINT, the
clean path that calls ``CampaignService.stop()`` and sends ``stop`` to
fabric workers; SIGTERM would skip it and leave ``repro worker``
processes redialling forever.  Children start with SIGINT at its
default, even when the benchmark itself was started with it ignored.

CPU and memory come from ``/proc`` (Linux): ``utime``/``stime`` of a
process, ``cutime``/``cstime`` for its reaped children, and ``VmHWM``
for peak resident memory.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec; the services need it to stop.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # If the benchmark itself is killed, its children must not outlive it.
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def base_env(root: str, trace_path: Optional[str] = None) -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    Inherited ``REPRO_*`` settings are dropped so that only the workload
    decides them: two workers, and tracing only on a traced pass, with
    finished spans appended to ``trace_path``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_JOBS"] = "2"
    if trace_path is not None:
        env["REPRO_TRACE"] = "1"
        env["REPRO_TRACE_PATH"] = trace_path
    return env


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", "r") as fh:
            raw = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may itself hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def start_time(pid: int) -> Optional[str]:
    """Kernel start time of ``pid`` (ticks since boot); guards pid reuse."""
    fields = _stat_fields(pid)
    return None if fields is None else fields[19]


def cpu_seconds(pid: int, reaped_children: bool = True) -> float:
    """User + system CPU of ``pid``, plus its reaped children if asked."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    ticks = int(fields[11]) + int(fields[12])
    if reaped_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / CLOCK_TICKS


def children_of(pid: int) -> List[int]:
    """Live direct children of ``pid``."""
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None and int(fields[1]) == pid:
                out.append(int(name))
    return out


def tree_cpu_seconds(pid: int, extra: Iterable[int] = ()) -> float:
    """CPU of ``pid``, its reaped and live children, and ``extra`` processes."""
    total = cpu_seconds(pid)
    for child in children_of(pid):
        total += cpu_seconds(child)
    for other in extra:
        total += cpu_seconds(other)
    return total


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", "r") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Processes:
    """Every process a run starts, recorded in ``pidfile`` until reaped."""

    def __init__(self, pidfile: str) -> None:
        self.pidfile = pidfile
        self.procs: List[subprocess.Popen] = []
        self.escalations: List[str] = []

    @staticmethod
    def leftovers(pidfile: str) -> List[str]:
        """Processes named in ``pidfile`` that are still alive."""
        alive = []
        try:
            with open(pidfile, "r") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return alive
        for line in lines:
            parts = line.split(" ", 2)
            if len(parts) == 3 and start_time(int(parts[0])) == parts[1]:
                alive.append(f"pid {parts[0]}: {parts[2]}")
        return alive

    def spawn(
        self,
        argv: Sequence[str],
        env: Dict[str, str],
        cwd: str,
        log_path: str,
        stdout: Optional[int] = None,
    ) -> subprocess.Popen:
        """Start ``argv``; stderr (and stdout unless piped) go to ``log_path``."""
        log = open(log_path, "ab")
        try:
            proc = subprocess.Popen(
                list(argv), env=env, cwd=cwd,
                stdout=log if stdout is None else stdout, stderr=log,
                stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent,
            )
        finally:
            log.close()
        self.procs.append(proc)
        with open(self.pidfile, "a") as fh:
            fh.write(f"{proc.pid} {start_time(proc.pid)} {' '.join(argv)}\n")
        return proc

    def stop(self, proc: subprocess.Popen) -> Optional[int]:
        """SIGINT ``proc`` (if still running) and wait; kill after 20 s."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        return self.wait(proc, grace=20.0)

    def wait(self, proc: subprocess.Popen, grace: float) -> Optional[int]:
        """Wait up to ``grace`` seconds for ``proc``; kill it if it lingers."""
        try:
            return proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.escalations.append(f"pid {proc.pid} killed after {grace:.0f}s")
            proc.kill()
            return proc.wait(timeout=10.0)

    def reap_all(self) -> None:
        """Kill and reap anything still running, then drop the pid file."""
        for proc in self.procs:
            if proc.poll() is None:
                self.escalations.append(f"pid {proc.pid} still running at exit")
                proc.kill()
            proc.wait(timeout=10.0)
        if os.path.exists(self.pidfile):
            os.remove(self.pidfile)


def wait_for_line(path: str, prefix: str, proc: subprocess.Popen,
                  timeout: float) -> str:
    """Poll the log at ``path`` for a line starting with ``prefix``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(path, "r") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.strip()
        except OSError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"process exited ({proc.returncode}) before "
                               f"printing {prefix!r}; see {path}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"no {prefix!r} line in {path} after {timeout}s")
        time.sleep(0.005)
