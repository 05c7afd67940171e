"""Threaded stress regression: writes and sync reads vs in-flight batches.

The serving design under test: thread replicas run each query batch on a
pool *worker* thread against the primary executor itself, holding the
one executor lock (``LocalReplicas._run``), while maintenance writes and
sync ``run_many`` calls take that same lock on the event-loop thread.
This suite hammers both sides at once on one snapshot — the primary's
own, the only one there is — and asserts the lock delivers: no write
lands while a batch executes (batches are widened to make that race
likely), answers equal to an untouched twin's at every step, and zero
snapshot divergences afterwards.  Directory management is a write
too: two waves attach, then detach, a side directory.  A bare (charged)
ROAD primary runs the same stress, since its pager is reached from the
pool threads too.
"""

import asyncio
import random
import sys
import threading
import time

import pytest

from repro.core.framework import ROAD
from repro.eval.metrics import snapshot_divergences
from repro.graph.generators import grid_network
from repro.objects.model import SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import Predicate
from repro.queries.workload import mixed_workload
from repro.serving import RoadService, ServiceConfig

ROUNDS = 6
LEVELS = 3
#: The waves that attach, then detach, the side directory.
ATTACH_WAVE, DETACH_WAVE = 1, 4
#: Small batches force several hand-offs per wave, so pool threads (more
#: of them than a small host has cores) have batches running or queued
#: on the lock when a write lands.
STRESS = dict(replicas=4, max_batch=4, max_delay_ms=0.5)


@pytest.fixture
def network():
    return grid_network(9, 9, seed=3)


def make_objects(network):
    """A fresh, identical object set per call (directories own theirs)."""
    return place_uniform(
        network, 24, seed=8, attr_choices={"type": ["cafe", "fuel"]}
    )


def make_side_objects(network):
    """A second provider's objects, attached and detached mid-stress."""
    return place_uniform(network, 12, seed=31, attr_choices={"type": ["cafe"]})


@pytest.fixture
def workload(network):
    return mixed_workload(
        network, 24, k=3, radius=300.0, seed=21,
        predicates=[Predicate.of(type="cafe")],
    )


def make_twin(network):
    """An untouched charged ROAD the stress writes are mirrored into."""
    twin = ROAD.build(network.copy(), levels=LEVELS)
    twin.attach_objects(make_objects(network))
    return twin


class Recorder:
    """Widens every pool-thread batch on an executor (a sleep that
    releases the GIL, so a racing write has room to land) and logs, per
    wave, when each batch ran and when each write reached the executor."""

    def __init__(self, executor):
        self.wave = 0
        self.batches = []  # (wave, start, end)
        self.writes = []  # (wave, time)
        run = executor.execute_many

        def execute_many(*args, **kwargs):
            if not threading.current_thread().name.startswith("road-svc"):
                return run(*args, **kwargs)  # the sync path, on this thread
            wave, start = self.wave, time.perf_counter()
            try:
                time.sleep(0.001)
                return run(*args, **kwargs)
            finally:
                self.batches.append((wave, start, time.perf_counter()))

        executor.execute_many = execute_many
        for name in ("write", "attach_objects", "detach_objects"):

            def write(*args, _write=getattr(executor, name), **kwargs):
                self.writes.append((self.wave, time.perf_counter()))
                return _write(*args, **kwargs)

            setattr(executor, name, write)

    def torn(self):
        """Writes that landed while a batch was executing."""
        return [
            at
            for _, at in self.writes
            if any(start < at < end for _, start, end in self.batches)
        ]

    def split_waves(self):
        """Waves whose write landed between two of their batches."""
        return [
            wave
            for wave, at in self.writes
            if any(w == wave and start < at for w, start, _ in self.batches)
            and any(w == wave and start > at for w, start, _ in self.batches)
        ]


def stress(service, twin, workload):
    """Waves of async batches with a write and a sync read landing on
    the loop thread mid-wave, against a twin mirroring every write; two
    waves also attach, then detach, a second provider."""
    rnd = random.Random(97)
    edges = sorted((u, v) for u, v, _ in twin.network.edges())
    next_id = max(twin.directory().objects.ids()) + 1
    recorder = Recorder(service.executor)

    async def waves():
        for step in range(ROUNDS):
            recorder.wave = step
            in_flight = asyncio.gather(*(service.submit(q) for q in workload))
            # Let the submits run (their full buckets reach the pool), then
            # block this thread briefly so the pool threads start on them.
            for _ in range(2):
                await asyncio.sleep(0)
            time.sleep(0.0005)
            if step == ATTACH_WAVE:
                for target in (service, twin):
                    target.attach_objects(make_side_objects(twin.network), name="side")
            elif step == DETACH_WAVE:
                for target in (service, twin):
                    target.detach_objects("side")
            u, v = edges[rnd.randrange(len(edges))]
            if step % 2 == 0:
                distance = twin.network.edge_distance(u, v) * 1.5
                service.update_edge_distance(u, v, distance)
                twin.update_edge_distance(u, v, distance)
            else:
                for target in (service, twin):
                    target.insert_object(
                        SpatialObject(next_id + step, (u, v), 0.0, {"type": "cafe"})
                    )
            # A sync read waits out the running batch, then sees the write.
            assert service.run_many(workload) == twin.execute_many(workload)
            if "side" in twin.directory_names:
                assert service.run_many(workload, directory="side") == (
                    twin.execute_many(workload, directory="side")
                )
            await asyncio.wait_for(in_flight, timeout=30.0)
        # Quiesced: the async path agrees with the twin too.
        return await asyncio.gather(*(service.submit(q) for q in workload))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over far more often
    try:
        answers = asyncio.run(waves())
    finally:
        sys.setswitchinterval(interval)
    assert answers == twin.execute_many(workload)
    assert service.stats()["in_flight"] == 0
    assert len(recorder.writes) == ROUNDS + 2
    assert recorder.torn() == [], "a write landed under a running batch"
    assert recorder.split_waves(), "no write landed mid-wave"


def test_broadcast_under_concurrent_batches(network, workload):
    """A frozen-mode engine: every write patches the one snapshot the
    pool threads are reading."""
    service = RoadService.build(
        network.copy(), make_objects(network),
        config=ServiceConfig(levels=LEVELS, **STRESS),
    )
    try:
        stress(service, make_twin(network), workload)
        # The primary's snapshot is byte-identical to a fresh freeze of
        # the maintained road: no patch was lost or torn.
        engine = service.executor
        assert service.replicas == ()
        assert engine.stats()["maintenance"]["updates"] == ROUNDS
        divergences = snapshot_divergences(
            random.Random(5), engine.frozen, engine.road.freeze(), probes=3
        )
        assert divergences == []
        assert service.stats()["replicas"] == STRESS["replicas"]
    finally:
        service.close()


def test_charged_primary_under_concurrent_batches(network, workload):
    """A bare ROAD: thread batches run the charged path, pager included,
    on pool threads, with writes and sync reads interleaved; thread × 2,
    as the benchmark's thread workloads serve."""
    road = make_twin(network)
    service = RoadService(road, config=ServiceConfig(**dict(STRESS, replicas=2)))
    try:
        stress(service, make_twin(network), workload)
        assert service.replica_pool_stats()["batches"] >= ROUNDS
    finally:
        service.close()


def test_thread_replicas_freeze_only_the_primary(network, monkeypatch):
    """Thread replicas hold no snapshot: building a frozen-mode service
    freezes once (the engine's own), a charged one never."""
    freezes = []
    original = ROAD.freeze

    def counting(road, **kwargs):
        freezes.append(kwargs)
        return original(road, **kwargs)

    monkeypatch.setattr(ROAD, "freeze", counting)
    service = RoadService.build(
        network.copy(), make_objects(network),
        config=ServiceConfig(levels=LEVELS, replicas=2),
    )
    service.close()
    assert len(freezes) == 1
    service = RoadService(make_twin(network), config=ServiceConfig(replicas=2))
    service.close()
    assert len(freezes) == 1
