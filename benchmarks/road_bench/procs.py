"""The server subprocess: start, measure from ``/proc``, tear down.

The server runs in its own session, so it and everything it spawns
(process replicas, the multiprocessing resource tracker) share one
process group that can be measured and signalled as a whole.  The
benchmark itself runs under ``supervise()``, which waits for whatever a
server leaves behind when it exits.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from road_bench import fixture

SERVE = Path(__file__).resolve().parent / "serve.py"
HOST = "127.0.0.1"
READY_TIMEOUT_S = 120.0
#: How long the group gets to exit after SIGTERM before SIGKILL.
TERM_GRACE_S = 15.0
#: How long orphans get to end by themselves once the benchmark has exited,
#: and again between SIGTERM and SIGKILL.
ORPHAN_GRACE_S = 5.0
SHM_DIR = Path("/dev/shm")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# <linux/prctl.h>
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((HOST, 0))
        return int(probe.getsockname()[1])


def shm_segments() -> Set[str]:
    """Names under ``/dev/shm`` (empty where the platform has none)."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the command name, or None if gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2 :].split()


def group_pids(pgid: int) -> List[int]:
    """Live, non-zombie processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[2] the process group.
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def _children(pid: int) -> List[int]:
    """Processes, zombies included, whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields and int(fields[1]) == pid:  # fields[1] is the parent
                found.append(int(entry))
    return found


def supervise() -> None:
    """Fork; return in the child, which goes on to run the benchmark.

    The parent never returns.  It is a child subreaper: a process the
    benchmark orphans — a server's multiprocessing resource tracker, which
    ends only after its server, or anything left by a crash — becomes this
    process's child instead of init's, and it waits for every one of them
    before it exits with the benchmark's status.  So when the command
    ends, everything it started has ended, on every path out of it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    sys.stdout.flush()
    sys.stderr.flush()
    benchmark = os.fork()
    if benchmark == 0:
        # Should the supervisor be killed, unwind as if terminated.
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
        return
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda signum, frame: os.kill(benchmark, signum))
    while True:  # reaps adopted orphans as they end, too
        pid, raw = os.wait()
        if pid == benchmark:
            break
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)  # what is left is bounded below
    code = os.waitstatus_to_exitcode(raw)
    # What is left ends by itself within moments (a resource tracker, or a
    # server that has read end-of-file).  If not: SIGTERM first, which a
    # resource tracker ignores, so that it outlives the workers sharing
    # its pipe and unlinks their shared memory; then SIGKILL.
    rounds = 0
    deadline = time.perf_counter() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no descendant is left
        if pid == 0:
            if time.perf_counter() > deadline:
                # A child's own children are adopted and signalled next round.
                for orphan in _children(os.getpid()):
                    os.kill(orphan, signal.SIGKILL if rounds else signal.SIGTERM)
                rounds += 1
                deadline = time.perf_counter() + ORPHAN_GRACE_S
            time.sleep(0.01)
    if rounds:
        print("road_bench: stopped processes the benchmark left behind", file=sys.stderr)
    # A dirty end fails the run even if its result was already printed.
    raise SystemExit((128 - code if code < 0 else code) or int(rounds > 0))


class Server:
    """One ``serve.py`` subprocess over the fixture."""

    def __init__(self, config: Dict[str, Any], *, nodes: int) -> None:
        self.config = config
        self.nodes = nodes
        self.port = free_port()
        self.setup_s: Optional[float] = None
        self._process: Optional[subprocess.Popen] = None
        self._spawned = 0.0
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._tree: Optional[List[int]] = None

    def start(self) -> "Server":
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONHASHSEED"] = "0"
        self._spawned = time.perf_counter()
        self._process = subprocess.Popen(
            [
                sys.executable,
                str(SERVE),
                "--host",
                HOST,
                "--port",
                str(self.port),
                "--nodes",
                str(self.nodes),
                "--config",
                json.dumps(self.config),
            ],
            # Never written to: the server reads end-of-file here if this
            # process dies without stopping it.
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(fixture.REPO_ROOT),
            env=env,
            start_new_session=True,
        )
        # A thread stamps READY when it arrives, so that several servers
        # starting at once are each timed on their own.
        self._reader = threading.Thread(target=self._watch_stdout, daemon=True)
        self._reader.start()
        return self

    def _watch_stdout(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        for line in self._process.stdout:
            if line.startswith(b"READY") and self.setup_s is None:
                self.setup_s = time.perf_counter() - self._spawned
                self._ready.set()
        self._ready.set()  # EOF: the server is gone, stop any waiter

    def wait_ready(self) -> float:
        """Seconds from spawn to ``READY`` (process start to listening)."""
        if not self._ready.wait(READY_TIMEOUT_S) or self.setup_s is None:
            self.stop()
            raise RuntimeError("server exited or timed out before READY")
        return self.setup_s

    def tree(self) -> List[int]:
        """The server's processes, found once: replica workers are all
        up by READY, and a timed phase must not rescan ``/proc``."""
        if self._tree is None:
            self._tree = group_pids(self.pgid)
        return self._tree

    @property
    def pgid(self) -> int:
        assert self._process is not None
        return self._process.pid  # session leader: pgid == pid

    def cpu_seconds(self) -> float:
        """User + system CPU of the live process tree, reaped children
        included (their time is carried by their parent)."""
        ticks = 0
        for pid in self.tree():
            fields = _stat_fields(pid)
            if fields:
                # utime, stime, cutime, cstime: stat fields 14-17.
                ticks += sum(int(value) for value in fields[11:15])
        return ticks / _CLOCK_TICKS

    def rss_mib(self) -> float:
        """Sum of ``VmRSS`` over the live process tree."""
        total_kib = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmRSS:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> bool:
        """SIGTERM the group, SIGKILL what is left; True if SIGTERM sufficed
        and the leader exited with status 0."""
        process = self._process
        if process is None:
            return True
        self._process = None
        pgid = process.pid
        clean = True
        try:
            os.killpg(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.perf_counter() + TERM_GRACE_S
        try:
            process.wait(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            clean = False
        while group_pids(pgid) and time.perf_counter() < deadline:
            time.sleep(0.02)
        if group_pids(pgid):
            clean = False
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            while group_pids(pgid):
                time.sleep(0.02)
        if self._reader is not None:
            self._reader.join(timeout=5.0)  # EOF: every writer has exited
        for pipe in (process.stdin, process.stdout):
            if pipe is not None:
                pipe.close()
        return clean and process.returncode == 0
