"""Threaded stress regression: patch-broadcast vs in-flight replica batches.

The serving design under test: query batches execute on pool *worker*
threads holding their replica's lock (``ThreadReplicaSet._run_locked``),
while maintenance broadcasts run on the event-loop thread and take every
replica lock in turn (``apply_report`` -> ``ThreadReplicaSet.apply``).  This suite hammers both sides
at once and asserts the lock discipline actually delivers what RA002
polices statically — no torn reads, no ``BufferError`` from a patch
splicing a buffer a query batch is reading, and byte-identical replicas
afterwards.

The companion assertion runs RA002 itself over the seeded
lock-violation fixture: the invariant the stress exercises dynamically
must be the one the lint engine can catch statically.
"""

import asyncio
import random
from pathlib import Path

import pytest

from repro.analysis import analyze_path
from repro.eval.metrics import snapshot_divergences
from repro.graph.generators import grid_network
from repro.objects.model import SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import Predicate
from repro.queries.workload import mixed_workload
from repro.serving import RoadService, ServiceConfig

ROUNDS = 6
LOCK_FIXTURE = (
    Path(__file__).parent.parent / "analysis" / "fixtures" / "ra002_unlocked_write"
)


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


def test_broadcast_under_concurrent_batches(service_parts):
    network, objects, workload = service_parts
    service = RoadService.build(
        network.copy(), objects,
        # Small batches force many round-robin dispatches per wave, so
        # both replicas have batches in flight when a broadcast lands.
        config=ServiceConfig(
            mode="frozen", levels=3, replicas=2, max_batch=4,
            max_delay_ms=0.5,
        ),
    )
    rnd = random.Random(97)
    edges = sorted((u, v) for u, v, _ in service.executor.network.edges())

    async def stress():
        waves = []
        for step in range(ROUNDS):
            in_flight = asyncio.gather(
                *(service.submit(q) for q in workload)
            )
            # Let the flush timer fire and batches reach the pool ...
            for _ in range(4):
                await asyncio.sleep(0.001)
            # ... then broadcast while they execute.  apply_report takes
            # each replica lock on *this* thread while the pool's worker
            # threads hold/queue on the same locks.
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

    try:
        waves = asyncio.run(stress())
        assert len(waves) == ROUNDS
        # Quiesced: every replica is byte-identical to a fresh freeze of
        # the maintained road — the broadcasts lost nothing.
        fresh = service.executor.road.freeze()
        for replica in service.replicas:
            divergences = snapshot_divergences(
                random.Random(5), replica, fresh, probes=3
            )
            assert divergences == []
        # And the async sharded path agrees with the sync primary.
        async def final():
            return await asyncio.gather(*(service.submit(q) for q in workload))

        assert asyncio.run(final()) == service.run_many(workload)
        stats = service.stats()
        assert stats["replicas"] == 2
    finally:
        service.close()


def test_ra002_catches_the_seeded_lock_violation():
    """The discipline stressed above is statically enforced: RA002 fires
    on every seeded violation shape (unlocked element write, rebind
    outside setup, admission state under a replica lock)."""
    findings = analyze_path(LOCK_FIXTURE, rule_ids=["RA002"])
    assert [f.rule for f in findings] == ["RA002"] * 3
    messages = " | ".join(f.message for f in findings)
    assert "_replicas" in messages
    assert "_pending_count" in messages
