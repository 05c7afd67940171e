#!/usr/bin/env python
"""Serving-shaped usage: one RoadService front door, three serving paths.

The charged ROAD index models the paper's disk-resident storage; a server
handling heavy traffic wraps it in a :class:`repro.serving.RoadService`:
a typed :class:`ServiceConfig` selects the frozen in-memory fast path,
the async front-end admission-batches concurrent queries (coalescing
duplicates), and replica threads run the batches off the event loop on
the engine's one snapshot — all byte-identical to the charged path.  Run with::

    python examples/frozen_batch_serving.py
"""

import asyncio
import time

from repro import KNNQuery, Predicate, RoadService, ServiceConfig, SpatialObject
from repro.graph import grid_network
from repro.objects.placement import place_uniform
from repro.queries import mixed_workload


def main() -> None:
    # 1. A city grid with a fleet of service points on its streets.
    network = grid_network(14, 14, spacing=100.0, seed=3)
    objects = place_uniform(
        network, 60, seed=9,
        attr_choices={"type": ["cafe", "pharmacy", "fuel"]},
    )

    # 2. One config instead of REPRO_* env sprawl: snapshot serving,
    #    patch maintenance, two replica threads for the worker pool.
    config = ServiceConfig(levels=3, replicas=2, max_batch=256)
    start = time.perf_counter()
    service = RoadService.build(network, objects, config=config)
    build_ms = (time.perf_counter() - start) * 1000.0
    print(f"service up in {build_ms:.0f} ms: {network.num_nodes} nodes, "
          f"{len(objects)} objects, {service.stats()['replicas']} replica "
          f"threads on one frozen snapshot")

    # 3. A server-shaped moment: 200 in-flight queries from many users,
    #    heavily overlapping (popular predicates repeat).  The sync path
    #    batches them in one call; the async path admission-batches the
    #    same queries per predicate and coalesces duplicates.
    queries = mixed_workload(
        network, 200, k=3, radius=600.0, seed=17,
        predicates=[Predicate.of(type="cafe"), Predicate.of(type="pharmacy")],
    )

    start = time.perf_counter()
    sync_answers = service.run_many(queries)
    sync_ms = (time.perf_counter() - start) * 1000.0

    async def serve_concurrently():
        return await asyncio.gather(*(service.submit(q) for q in queries))

    start = time.perf_counter()
    async_answers = asyncio.run(serve_concurrently())
    async_ms = (time.perf_counter() - start) * 1000.0

    assert async_answers == sync_answers  # byte-identical, by design
    counters = service.stats()["service"]
    print(f"{len(queries)} concurrent queries: sync batch {sync_ms:.1f} ms, "
          f"async admission-batched {async_ms:.1f} ms on "
          f"{service.stats()['replicas']} replica threads "
          f"({counters['coalesced']} duplicates coalesced, "
          f"{counters['batches']} execute_many calls)")

    # 4. Serving under churn: maintenance goes through the service, which
    #    patches the one snapshot every replica thread reads, under the
    #    lock their batches hold — nobody pays a full re-freeze.
    start = time.perf_counter()
    service.update_edge_distance(1, 2, network.edge_distance(1, 2) * 2.5)
    service.insert_object(
        SpatialObject(objects.next_id(), (5, 6), 20.0, {"type": "fuel"})
    )
    patch_ms = (time.perf_counter() - start) * 1000.0
    print(f"2 updates patched into the serving snapshot in {patch_ms:.2f} ms")

    nearest = service.run(KNNQuery(0, 1, Predicate.of(type="fuel")))
    if nearest:
        print(f"after congestion + patch: nearest fuel from node 0 is "
              f"object {nearest[0].object_id} at {nearest[0].distance:.0f} m")

    # 5. Still byte-identical across paths after maintenance.
    post_sync = service.run_many(queries)
    post_async = asyncio.run(serve_concurrently())
    assert post_async == post_sync
    print("post-maintenance answers identical across sync and async paths")
    service.close()


if __name__ == "__main__":
    main()
