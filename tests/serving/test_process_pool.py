"""Process-shard serving: seqlock broadcasts vs in-flight worker batches.

The process analog of ``test_replica_stress``: query batches execute in
worker *processes* attached to one shared-memory snapshot, while
maintenance broadcasts patch that snapshot in place on the primary under
the seqlock generation counter (odd = patch in flight, workers retry
instead of serving torn reads).  The suite hammers both sides at once
through the full RoadService front-end, then checks the pool's own
contract surface directly (worker errors, snapshot replacement,
lifecycle), and finally a whole server process from outside: its
process census, and what a SIGKILL of its process group leaves behind.
"""

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.core.frozen_backends import shared_memory_available
from repro.eval.metrics import snapshot_divergences
from repro.graph.generators import grid_network
from repro.objects.model import SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import KNNQuery, Predicate
from repro.queries.workload import mixed_workload
from repro.serving import (
    ProcessPoolError,
    ProcessReplicaPool,
    RoadService,
    ServiceConfig,
    UnknownDirectoryError,
    WorkerError,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="host has no anonymous shared memory (memfd_create)",
)

ROUNDS = 4


@pytest.fixture
def service_parts():
    network = grid_network(9, 9, seed=3)
    objects = place_uniform(
        network, 24, seed=8, attr_choices={"type": ["cafe", "fuel"]}
    )
    workload = mixed_workload(
        network, 24, k=3, radius=300.0, seed=21,
        predicates=[Predicate.of(type="cafe")],
    )
    return network, objects, workload


@pytest.fixture
def service(service_parts):
    network, objects, _ = service_parts
    service = RoadService.build(
        network.copy(), objects,
        config=ServiceConfig(
            levels=3, replicas=2, replica_mode="process",
            max_batch=4, max_delay_ms=0.5,
        ),
    )
    yield service
    service.close()


def test_broadcasts_under_concurrent_process_batches(service_parts, service):
    network, objects, workload = service_parts
    rnd = random.Random(97)
    edges = sorted((u, v) for u, v, _ in service.executor.network.edges())

    async def stress():
        waves = []
        for step in range(ROUNDS):
            in_flight = asyncio.gather(
                *(service.submit(q) for q in workload)
            )
            # Let the flush timer fire and batches reach the workers ...
            for _ in range(4):
                await asyncio.sleep(0.001)
            # ... then patch the shared snapshot while they execute:
            # apply() holds the generation counter odd for the patch
            # window, so a worker mid-batch re-runs instead of tearing.
            u, v = edges[rnd.randrange(len(edges))]
            if step % 2 == 0:
                service.update_edge_distance(
                    u, v, service.executor.network.edge_distance(u, v) * 1.5
                )
            else:
                service.insert_object(
                    SpatialObject(
                        objects.next_id() + step, (u, v), 0.0,
                        {"type": "cafe"},
                    )
                )
            waves.append(await in_flight)
        return waves

    waves = asyncio.run(stress())
    assert len(waves) == ROUNDS
    # Quiesced: the shared snapshot is byte-identical to a fresh freeze
    # of the maintained road — the broadcasts lost nothing.
    fresh = service.executor.road.freeze()
    for replica in service.replicas:
        assert snapshot_divergences(
            random.Random(5), replica, fresh, probes=3
        ) == []

    # And the async process-sharded path agrees with the sync primary.
    async def final():
        return await asyncio.gather(*(service.submit(q) for q in workload))

    assert asyncio.run(final()) == service.run_many(workload)

    stats = service.stats()
    assert stats["replicas"] == 2
    assert stats["replica_mode"] == "process"
    pool = stats["replica_pool"]
    assert pool["workers"] == 2
    assert pool["syncs"] >= ROUNDS
    assert pool["queries"] > 0


def test_attach_objects_replaces_the_shared_snapshot(service_parts, service):
    network, _, workload = service_parts
    banks = place_uniform(network, 6, seed=77, attr_choices={"type": ["bank"]})
    service.attach_objects(banks, name="banks")

    async def wave():
        return await asyncio.gather(
            *(service.submit(q, directory="banks") for q in workload)
        )

    assert asyncio.run(wave()) == service.run_many(workload, directory="banks")
    assert service.stats()["replica_pool"]["reloads"] >= 1


def _memfd_inodes(pid):
    """Inodes of the memfd segments process ``pid`` holds open or mapped."""
    held = set()
    fds = Path(f"/proc/{pid}/fd")
    for fd in fds.iterdir():
        try:
            if os.readlink(fd).startswith("/memfd:"):
                held.add(fd.stat().st_ino)
        except OSError:  # closed since the listing
            continue
    for line in Path(f"/proc/{pid}/maps").read_text().splitlines():
        fields = line.split()
        if len(fields) >= 6 and fields[5].startswith("/memfd:"):
            held.add(int(fields[4]))
    return held


def _pool_inodes(pool):
    """Inodes of the pool's live snapshot segments and control vector."""
    fds = [fd for fd, _typecode in pool.frozen.shm_manifest()["segments"].values()]
    return {os.fstat(fd).st_ino for fd in (*fds, pool._ctrl.descriptor)}


def test_back_to_back_swaps_skip_the_superseded_reload(service_parts):
    """Two snapshot swaps with no batch between them (attach, attach).

    The first swap's reload payload carries segments the second swap has
    already closed on the primary; a worker catching up must skip it for
    the later reload (closing its descriptors unused) instead of
    attaching a superseded snapshot.
    """
    network, objects, workload = service_parts
    service = RoadService.build(
        network.copy(), objects,
        config=ServiceConfig(
            levels=3, replicas=1, replica_mode="process",
        ),
    )
    try:
        for name, seed in (("banks", 77), ("fuel", 78)):
            service.attach_objects(
                place_uniform(network, 6, seed=seed), name=name
            )

        async def wave():
            return await asyncio.gather(
                *(service.submit(q, directory="fuel") for q in workload)
            )

        fresh = service.executor.road.freeze()
        assert asyncio.run(wave()) == fresh.execute_many(
            workload, directory="fuel"
        )
        fresh.close()
        # The worker holds the live snapshot's segments and the control
        # vector, and nothing of either superseded snapshot.
        pool = service._shards
        live = _pool_inodes(pool)
        (worker,) = pool._processes
        assert _memfd_inodes(worker.pid) == live
    finally:
        service.close()
    # Closing the service released every segment in this process too.
    assert _memfd_inodes(os.getpid()) & live == set()


def test_worker_errors_surface_with_type_and_message(service):
    async def ask():
        return await service.submit(
            KNNQuery(node=0, k=2), directory="nowhere"
        )

    with pytest.raises(UnknownDirectoryError):
        asyncio.run(ask())


def _pool_parts():
    network = grid_network(7, 7, seed=11)
    objects = place_uniform(
        network, 16, seed=4, attr_choices={"type": ["cafe", "fuel"]}
    )
    road = RoadService.build(
        network, objects, config=ServiceConfig(levels=3)
    ).executor.road
    workload = mixed_workload(network, 12, k=3, radius=250.0, seed=9)
    return road, workload


def test_pool_rejects_non_shm_snapshots():
    road, _ = _pool_parts()
    snapshot = road.freeze()
    try:
        with pytest.raises(ProcessPoolError, match="shm"):
            ProcessReplicaPool(snapshot, workers=1)
    finally:
        snapshot.close()


def test_pool_serves_raises_and_closes():
    road, workload = _pool_parts()
    pool = ProcessReplicaPool(road.freeze(backend="shm"), workers=2)
    try:
        reference = road.freeze()
        answers = pool.submit(workload, None).result(timeout=60)
        assert answers == reference.execute_many(workload)
        reference.close()
        # A worker-side failure arrives as a typed, picklable error.
        with pytest.raises(WorkerError, match="UnknownDirectoryError"):
            pool.submit(workload[:1], "nowhere").result(timeout=60)
        stats = pool.stats()
        assert stats["batches"] == 2
        assert stats["workers"] == 2
    finally:
        pool.close()
        pool.close()  # idempotent
    assert pool.stats()["closed"] is True
    # A closed pool refuses new work instead of hanging.
    with pytest.raises(ProcessPoolError, match="closed"):
        pool.submit(workload, None)


def test_a_splice_outgrowing_its_slack_grows_in_place_without_a_reload():
    """Object churn past an array's capacity slack grows that segment in
    place: the workers re-map it on the sync payload, keep serving the
    same snapshot (no reload) and answer like a fresh freeze."""
    road, workload = _pool_parts()
    pool = ProcessReplicaPool(road.freeze(backend="shm"), workers=1)
    try:
        sizes = {k: a.segment_bytes for k, a in pool.frozen._arrays().items()}
        u, v, d = next(iter(road.network.edges()))
        for step in range(12):
            obj = SpatialObject(
                road.directory().objects.next_id(), (u, v), d * step / 12
            )
            assert pool.apply(road.insert_object(obj)) == "patched"
        grown = {
            k for k, a in pool.frozen._arrays().items()
            if a.segment_bytes > sizes[k]
        }
        assert grown
        reference = road.freeze()
        assert pool.submit(workload, None).result(timeout=60) == (
            reference.execute_many(workload)
        )
        reference.close()
        stats = pool.stats()
        assert stats["syncs"] == 12
        assert stats["reloads"] == 0
    finally:
        pool.close()


def _await(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError("condition not reached within the timeout")


def test_worker_death_fails_futures_and_reroutes():
    """A killed worker neither hangs its futures nor keeps taking work.

    The watchdog waits on the process sentinels: a SIGKILL (stand-in for
    segfault/OOM) fails any batch routed at the corpse with a typed
    error, drops the worker from the round-robin, and the survivor keeps
    serving.  Only when every worker is gone does submit() refuse.

    Killed workers leak nothing: a segment has no name, so the kernel
    frees it with its last holder; once the pool closes, this process
    holds none of its segments either.
    """
    road, workload = _pool_parts()
    pool = ProcessReplicaPool(road.freeze(backend="shm"), workers=2)
    segments = _pool_inodes(pool)
    try:
        reference = road.freeze()
        expected = reference.execute_many(workload)
        reference.close()
        assert pool.submit(workload, None).result(timeout=60) == expected

        os.kill(pool._processes[0].pid, signal.SIGKILL)
        # Batches routed at the corpse before the watchdog notices fail
        # instead of pending forever; once it has, everything reroutes.
        served = 0
        for _ in range(6):
            future = pool.submit(workload, None)
            try:
                assert future.result(timeout=60) == expected
                served += 1
            except ProcessPoolError as exc:
                assert "died" in str(exc)
            time.sleep(0.1)
        assert served > 0
        _await(lambda: pool.stats()["worker_deaths"] == 1)
        assert pool.submit(workload, None).result(timeout=60) == expected

        os.kill(pool._processes[1].pid, signal.SIGKILL)
        _await(lambda: pool.stats()["worker_deaths"] == 2)
        with pytest.raises(ProcessPoolError, match="died"):
            pool.submit(workload, None)
    finally:
        pool.close()
    assert _memfd_inodes(os.getpid()) & segments == set()


def test_failed_patch_degrades_pool_until_snapshot_replaced(monkeypatch):
    """A patch that dies mid-apply must not resume over torn arrays.

    The window stays open (generation odd, workers paused), the pool
    refuses submit()/apply() as degraded, and replace_snapshot() with a
    fresh freeze is the recovery path that closes the window over
    known-good state.
    """
    road, workload = _pool_parts()
    pool = ProcessReplicaPool(road.freeze(backend="shm"), workers=2)
    try:
        reference = road.freeze()
        expected = reference.execute_many(workload)
        reference.close()
        assert pool.submit(workload, None).result(timeout=60) == expected

        def explode(report, source=None):
            raise RuntimeError("simulated mid-patch failure")

        monkeypatch.setattr(pool.frozen, "apply", explode)
        with pytest.raises(RuntimeError, match="mid-patch"):
            pool.apply(object())

        stats = pool.stats()
        assert stats["degraded"] is True
        assert stats["generation"] % 2 == 1  # window held open
        with pytest.raises(ProcessPoolError, match="degraded"):
            pool.submit(workload, None)
        with pytest.raises(ProcessPoolError, match="degraded"):
            pool.apply(object())

        pool.replace_snapshot(road.freeze(backend="shm"))
        stats = pool.stats()
        assert stats["degraded"] is False
        assert stats["generation"] % 2 == 0
        assert pool.submit(workload, None).result(timeout=60) == expected
    finally:
        pool.close()


def test_close_unblocks_workers_parked_in_an_open_patch_window(monkeypatch):
    """close() on a degraded pool stops workers without terminate().

    A worker spinning in the seqlock catch-up (the patch window never
    closes after a failed apply) keeps reading its channel, so the stop
    message reaches it: it aborts the batch and exits cleanly.
    """
    road, workload = _pool_parts()
    pool = ProcessReplicaPool(road.freeze(backend="shm"), workers=2)

    def explode(report, source=None):
        raise RuntimeError("simulated mid-patch failure")

    monkeypatch.setattr(pool.frozen, "apply", explode)
    with pytest.raises(RuntimeError, match="mid-patch"):
        pool.apply(object())
    # Hand a worker a batch directly (submit() refuses while degraded):
    # it parks in the catch-up loop because the window never closes.
    pool._post(0, ("batch", 10_000, list(workload), None, False))
    time.sleep(0.3)
    pool.close()
    assert all(process.returncode == 0 for process in pool._processes)


def test_mask_cache_gauges_count_the_workers_path_tables():
    """The primary's snapshot never runs a submitted batch, so the
    ``road_mask_cache`` path gauges must come from the workers."""
    network = grid_network(10, 10, seed=6)
    objects = place_uniform(network, 12, seed=5)
    service = RoadService.build(
        network, objects,
        config=ServiceConfig(
            levels=2, replicas=1, replica_mode="process",
        ),
    )
    try:
        queries = [KNNQuery(node=i, k=3) for i in range(100)]

        async def ask():
            return await asyncio.gather(*(service.submit(q) for q in queries))

        assert asyncio.run(ask()) == service.run_many(queries)
        # The primary's shm snapshot, which the gauges sample, serves none.
        own = service._shards.frozen.path_stats()
        assert own["path_shared_entries"] == own["path_table_entries"] == 0
        workers = service._shards.path_stats()
        assert workers["path_shared_entries"] > 0
        assert workers["path_shared_bytes"] > 0
        gauges = {}
        for line in service.metrics.render().splitlines():
            if line.startswith("road_mask_cache{"):
                field, value = line.split('field="')[1].split('"} ')
                gauges[field] = float(value)
        for key in ("path_shared_entries", "path_table_entries"):
            assert gauges[key] == workers[key]
        assert gauges["path_shared_entries"] > 0
    finally:
        service.close()


#: A process-mode server on the 2,100-node CA replica, run in its own
#: session: it prints its child processes and the pool's worker pids,
#: then serves until its stdin closes.
_SERVER = """
import json, os, sys
from pathlib import Path
from repro.eval.datasets import load_dataset
from repro.objects.placement import place_uniform
from repro.serving import RoadService, ServiceConfig
network = load_dataset("CA").network
service = RoadService.build(
    network, place_uniform(network, 100, seed=1),
    config=ServiceConfig(replicas=2, replica_mode="process"),
)
def parent(pid):
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat[stat.rindex(")") + 2 :].split()[1])
children = []
for entry in os.listdir("/proc"):
    try:
        if entry.isdigit() and parent(entry) == os.getpid():
            children.append(int(entry))
    except OSError:
        pass
workers = [process.pid for process in service._shards._processes]
print(json.dumps([sorted(children), sorted(workers)]), flush=True)
sys.stdin.read()
service.close()
"""


def _start_server():
    root = str(Path(repro.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
        start_new_session=True,
    )
    ready, _, _ = select.select([server.stdout], [], [], 120.0)
    if not ready:
        os.killpg(server.pid, signal.SIGKILL)
        server.wait()
        raise AssertionError("the server did not boot within 120 s")
    children, workers = json.loads(server.stdout.readline())
    return server, children, workers


def _running(pid):
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def test_a_process_server_runs_exactly_its_workers():
    """No resource tracker and no helper process: the server's children
    are the pool's workers, one per replica, and a closed service leaves
    none running."""
    server, children, workers = _start_server()
    try:
        assert children == workers
        assert len(workers) == 2
        server.stdin.close()
        assert server.wait(timeout=60) == 0
        assert not any(_running(pid) for pid in workers)
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
        server.stdout.close()


def test_a_killed_server_leaves_nothing_behind():
    """SIGKILL the whole process group of a serving process-mode server:
    no ``/dev/shm`` entry appears and no worker outlives it."""
    shm = Path("/dev/shm")
    before = set(shm.iterdir()) if shm.is_dir() else set()
    server, _children, workers = _start_server()
    try:
        os.killpg(server.pid, signal.SIGKILL)
        server.wait(timeout=60)
        deadline = time.monotonic() + 15.0
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived the kill"
            time.sleep(0.05)
    finally:
        server.stdin.close()
        server.stdout.close()
    after = set(shm.iterdir()) if shm.is_dir() else set()
    assert after - before == set()
