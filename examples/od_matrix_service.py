#!/usr/bin/env python
"""The network-analysis workloads end to end: a delivery dispatcher's day.

A fleet operator on a city street network asks three questions the
classic LDSQ menu cannot:

* "what does it cost to send any of my 4 depots to any of my 6 drops?"
  — an :class:`ODMatrixQuery` (one batched multi-source sweep, not 24
  point-to-point queries);
* "which restaurants can each depot reach in 5 / 10 / 15 minutes?"
  — a :class:`ServiceAreaQuery` (multi-break isochrone);
* "what's the nearest fuel stop along a driver's route?"
  — a :class:`RouteKNNQuery` (k best objects by detour distance).

All three are declared like kNN/range (a ``kind`` naming the engine
method that answers them), so they get the frozen fast path, admission
batching, replica shards, and the JSON wire codec for free.  The
example drives each surface: sync ``run``/``run_many``, the async
admission path, and a wire round-trip.

Run with::

    python examples/od_matrix_service.py
"""

import asyncio

from repro.graph import sf_like, travel_time_metric
from repro.objects import place_uniform
from repro.queries import (
    ODMatrixQuery,
    Predicate,
    RouteKNNQuery,
    ServiceAreaQuery,
)
from repro.serving import RoadService, ServiceConfig
from repro.serving.wire import decode_result, encode_query, encode_result


def main() -> None:
    # A city street network in travel-time minutes, with tagged POIs.
    streets = sf_like(num_nodes=1200, seed=11)
    minutes = travel_time_metric(streets, seed=12, speed_range=(250.0, 400.0))
    pois = place_uniform(
        minutes,
        90,
        seed=13,
        attr_choices={"type": ["restaurant", "fuel", "parking"]},
    )
    service = RoadService.build(
        minutes,
        pois,
        config=ServiceConfig(mode="frozen", levels=3, replicas=2),
    )
    nodes = sorted(minutes.node_ids())
    depots = tuple(nodes[:: len(nodes) // 4][:4])
    drops = tuple(nodes[7 :: len(nodes) // 6][:6])

    # -- OD cost matrix: 4 depots x 6 drops in one sweep ----------------
    matrix = service.run(ODMatrixQuery(depots, drops))
    print(f"OD matrix: {len(depots)}x{len(drops)} = {len(matrix)} cells")
    for row_start in range(0, len(matrix), len(drops)):
        row = matrix[row_start : row_start + len(drops)]
        cells = " ".join(f"{cell.distance:6.1f}" for cell in row)
        print(f"  depot {row[0].source:4d} -> {cells}")
    best = min(matrix, key=lambda cell: cell.distance)
    print(
        f"cheapest assignment: depot {best.source} -> drop {best.target} "
        f"({best.distance:.1f} min)\n"
    )

    # -- Service area: restaurants reachable in 5/10/15 minutes ---------
    breaks = (5.0, 10.0, 15.0)
    area = service.run(
        ServiceAreaQuery(depots[0], breaks, Predicate.of(type="restaurant"))
    )
    print(f"service area of depot {depots[0]} (breaks {breaks}):")
    for bucket, limit in enumerate(breaks):
        hits = [entry for entry in area if entry.bucket == bucket]
        print(f"  <= {limit:4.0f} min: {len(hits)} restaurants")
    print()

    # -- In-route kNN: fuel stops along a delivery route ----------------
    route = tuple(nodes[:: len(nodes) // 8][:8])
    stops = service.run(RouteKNNQuery(route, 3, Predicate.of(type="fuel")))
    print(f"nearest fuel stops along a {len(route)}-node route:")
    for entry in stops:
        print(f"  object {entry.object_id}: {entry.distance:.1f} min detour")
    print()

    # -- The async admission path answers identically -------------------
    queries = [
        ODMatrixQuery(depots, drops),
        ServiceAreaQuery(depots[0], breaks),
        RouteKNNQuery(route, 3),
    ]

    async def drive():
        return await asyncio.gather(*(service.submit(q) for q in queries))

    assert asyncio.run(drive()) == service.run_many(queries)
    print("async admission path: byte-identical to the sync primary")

    # -- And everything crosses the JSON wire losslessly ----------------
    for query in queries:
        payload = encode_query(query)
        rows = service.run(query)
        assert decode_result(encode_result(rows)) == rows
        print(f"wire round-trip ok: {payload['type']}")

    service.close()


if __name__ == "__main__":
    main()
