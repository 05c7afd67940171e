"""The server subprocess comes down with everything it started."""

import subprocess
import sys
import time

from road_bench import fixture, procs

PROCESS_REPLICA = {"replicas": 1, "replica_mode": "process"}


def _wait_gone(pgid, seconds=20.0):
    deadline = time.perf_counter() + seconds
    while procs.group_pids(pgid) and time.perf_counter() < deadline:
        time.sleep(0.05)
    return not procs.group_pids(pgid)


def test_stop_leaves_no_process_and_no_shared_memory():
    before = procs.shm_segments()
    server = procs.Server(PROCESS_REPLICA, nodes=fixture.SMOKE_NODES).start()
    try:
        assert server.wait_ready() > 0
        pgid = server.pgid
        # The leader, its replica worker and the resource tracker.
        assert len(server.tree()) >= 3
        assert procs.shm_segments() - before
        assert server.cpu_seconds() > 0 and server.rss_mib() > 0
    finally:
        clean = server.stop()
    assert clean
    assert procs.group_pids(pgid) == []
    assert procs.shm_segments() == before


def test_server_stops_itself_when_the_harness_is_gone():
    before = procs.shm_segments()
    server = procs.Server(PROCESS_REPLICA, nodes=fixture.SMOKE_NODES).start()
    try:
        server.wait_ready()
        pgid = server.pgid
        # What the server sees when the harness is killed: end-of-file.
        server._process.stdin.close()
        assert _wait_gone(pgid)
        assert procs.shm_segments() == before
    finally:
        server.stop()


ORPHANING_COMMAND = """
import os, sys, time
sys.path.insert(0, {parent!r})
from road_bench import procs

procs.supervise()
if os.fork() == 0:  # a child that exits at once ...
    if os.fork() == 0:  # ... and leaves a grandchild behind
        time.sleep(0.5)
        open({marker!r}, "w").close()
    os._exit(0)
raise SystemExit(7)
"""


def test_supervised_command_ends_after_the_orphans_it_left(tmp_path):
    marker = tmp_path / "orphan_ended"
    command = ORPHANING_COMMAND.format(
        parent=str(fixture.BENCH_DIR.parent), marker=str(marker)
    )
    done = subprocess.run([sys.executable, "-c", command], timeout=30, check=False)
    assert done.returncode == 7
    assert marker.exists()
