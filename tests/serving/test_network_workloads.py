"""The network-analysis workloads: OD matrices, isochrones, in-route kNN.

Three layers of guarantees, matching the serving stack:

* **Oracle** — every workload agrees with brute-force Dijkstra ground
  truth (min-over-seeds for the multi-source sweeps);
* **Identity** — charged ROAD, FrozenRoad on every installed backend, a
  saved/mmap-loaded snapshot and the served ``SnapshotOwner`` return the
  same bytes for the same query;
* **Serving** — the async admission path (thread and process shards)
  answers exactly like the sync primary, and every degenerate shape
  (empty targets, unreachable cells, duplicate path nodes, unsorted
  breaks, unknown directories) has one defined behaviour everywhere.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro.core.framework import ROAD
from repro.core.frozen_backends import installed_backends, shared_memory_available
from repro.core.owner import SnapshotOwner
from repro.core.search import SearchStats
from repro.core.serialize import load_snapshot, save_snapshot
from repro.eval.metrics import snapshot_divergences
from repro.graph.generators import grid_network
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import (
    ODMatrixEntry,
    ODMatrixQuery,
    Predicate,
    RouteKNNQuery,
    ServiceAreaEntry,
    ServiceAreaQuery,
)
from repro.serving import RoadService, ServiceConfig
from repro.core.dispatch import UnknownDirectoryError
from repro.serving.wire import decode_result, encode_result
from tests.oracle import assert_od_matches_dijkstra, brute_object_distances

NETWORK = grid_network(8, 8, seed=13)
OBJECTS = place_uniform(NETWORK, 20, seed=5, attr_choices={"type": ["a", "b"]})
PRED_A = Predicate.of(type="a")

QUERIES = [
    ODMatrixQuery((0, 9, 27), (20, 63, 20)),
    ODMatrixQuery((5,), (5,)),
    ServiceAreaQuery(0, (150.0, 400.0, 900.0)),
    ServiceAreaQuery(12, (250.0, 600.0), PRED_A),
    RouteKNNQuery((0, 1, 2, 10, 18), 4),
    RouteKNNQuery((7, 15, 23), 3, PRED_A),
]


@pytest.fixture(scope="module")
def road():
    road = ROAD.build(NETWORK.copy(), levels=3)
    road.attach_objects(OBJECTS)
    return road


@pytest.fixture(scope="module")
def frozen(road):
    return road.freeze()


def brute_multi_source(seeds, predicate=None, radius=None, k=None):
    """Min-over-seeds brute force: the ground truth for both sweeps."""
    best = {}
    for seed in set(seeds):
        for distance, object_id in brute_object_distances(
            NETWORK, OBJECTS, seed, predicate or Predicate()
        ):
            if object_id not in best or distance < best[object_id]:
                best[object_id] = distance
    out = sorted((d, o) for o, d in best.items())
    if radius is not None:
        out = [(d, o) for d, o in out if d <= radius]
    if k is not None:
        out = out[:k]
    return out


class TestOracle:
    def test_od_matrix_matches_dijkstra(self, road, frozen):
        # Shortcut weights are pre-summed, so a cell may differ from the
        # flat Dijkstra in its last digits: the oracle's 1e-6 tolerance.
        sources, targets = [0, 9, 27], [20, 63, 20]
        for engine in (road, frozen):
            cells = engine.execute(ODMatrixQuery(tuple(sources), tuple(targets)))
            assert_od_matches_dijkstra(NETWORK, sources, targets, cells)

    def test_service_area_matches_brute_range(self, road, frozen):
        breaks = (150.0, 400.0, 900.0)
        expected = brute_multi_source([0], radius=breaks[-1])
        for engine in (road, frozen):
            got = engine.execute(ServiceAreaQuery(0, breaks))
            assert [(e.distance, e.object_id) for e in got] == pytest.approx(
                expected
            )
            for entry in got:
                # bucket = index of the first break covering the hit
                assert entry.bucket == min(
                    i for i, b in enumerate(breaks) if entry.distance <= b
                )

    def test_route_knn_matches_min_over_path(self, road, frozen):
        path, k = (0, 1, 2, 10, 18), 4
        expected = brute_multi_source(path, k=k)
        for engine in (road, frozen):
            got = engine.execute(RouteKNNQuery(path, k))
            assert [(e.distance, e.object_id) for e in got] == pytest.approx(
                expected
            )

    def test_predicate_filters_both_sweeps(self, road, frozen):
        expected = brute_multi_source([12], predicate=PRED_A, radius=600.0)
        for engine in (road, frozen):
            got = engine.execute(ServiceAreaQuery(12, (250.0, 600.0), PRED_A))
            assert [(e.distance, e.object_id) for e in got] == pytest.approx(
                expected
            )
        expected = brute_multi_source((7, 15, 23), predicate=PRED_A, k=3)
        for engine in (road, frozen):
            got = engine.execute(RouteKNNQuery((7, 15, 23), 3, PRED_A))
            assert [(e.distance, e.object_id) for e in got] == pytest.approx(
                expected
            )


class TestCrossEngineIdentity:
    def test_every_backend_matches_charged(self, road):
        base = road.execute_many(QUERIES)
        for backend in installed_backends():
            assert road.freeze(backend=backend).execute_many(QUERIES) == base

    def test_mmap_snapshot_matches_charged(self, road, frozen, tmp_path):
        path = os.fspath(tmp_path / "snapshot.bin")
        save_snapshot(frozen, path)
        loaded = load_snapshot(path)
        try:
            assert loaded.execute_many(QUERIES) == road.execute_many(QUERIES)
        finally:
            loaded.close()

    def test_snapshot_owner_matches_charged(self, road):
        engine = SnapshotOwner.build(NETWORK.copy(), OBJECTS, levels=3)
        assert engine.execute_many(QUERIES) == road.execute_many(QUERIES)

    def test_stats_are_identical_across_engines(self, road, frozen):
        for query in QUERIES:
            charged_stats, frozen_stats = SearchStats(), SearchStats()
            assert road.execute(query, stats=charged_stats) == frozen.execute(
                query, stats=frozen_stats
            )
            assert charged_stats == frozen_stats, query

    def test_patched_snapshot_stays_identical(self, road):
        divergences = snapshot_divergences(
            random.Random(7), road.freeze(), road.freeze(), probes=3
        )
        assert divergences == []


class TestServingPaths:
    @pytest.mark.parametrize(
        "replica_mode",
        [
            "thread",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    not shared_memory_available(),
                    reason="shared memory unavailable",
                ),
            ),
        ],
    )
    def test_async_shards_match_sync_primary(self, replica_mode):
        service = RoadService.build(
            NETWORK.copy(),
            OBJECTS,
            config=ServiceConfig(
                levels=3,
                replicas=2,
                replica_mode=replica_mode,
                max_batch=8,
                max_delay_ms=0.5,
            ),
        )
        try:
            import asyncio

            async def drive():
                return await asyncio.gather(
                    *(service.submit(q) for q in QUERIES)
                )

            got = asyncio.run(drive())
            assert got == service.run_many(QUERIES)
        finally:
            service.close()

    def test_wire_round_trip_per_kind(self, road):
        for query in QUERIES:
            rows = road.execute(query)
            assert decode_result(encode_result(rows)) == rows


class TestDegenerateShapes:
    def test_empty_targets_yield_empty_matrix(self, road, frozen):
        query = ODMatrixQuery((0, 1), ())
        assert road.execute(query) == []
        assert frozen.execute(query) == []

    def test_source_equals_target_is_zero(self, road, frozen):
        query = ODMatrixQuery((5,), (5,))
        for engine in (road, frozen):
            assert engine.execute(query) == [ODMatrixEntry(5, 5, 0.0)]

    def test_unreachable_cell_is_inf_and_crosses_as_null(self):
        network = RoadNetwork()
        for i in range(8):
            network.add_node(i, float(i % 4), float(i // 4))
        for a, b in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]:
            network.add_edge(a, b, 1.0)
        objects = ObjectSet([SpatialObject(0, (0, 1), 0.5, {"type": "a"})])
        road = ROAD.build(network, levels=2)
        road.attach_objects(objects)
        query = ODMatrixQuery((0,), (7,))
        cell = road.execute(query)[0]
        assert math.isinf(cell.distance)
        assert road.freeze().execute(query) == [cell]
        encoded = encode_result([cell])
        assert encoded[0]["distance"] is None
        assert decode_result(encoded) == [cell]

    def test_duplicate_path_nodes_collapse(self, road, frozen):
        # One seed per distinct node: the answer and the whole SearchStats
        # (a second seed entry would count a second pop) are those of the
        # deduplicated path, on both engines.
        for engine in (road, frozen):
            repeated, once = SearchStats(), SearchStats()
            assert engine.execute(
                RouteKNNQuery((5, 5, 5), 3), stats=repeated
            ) == engine.execute(RouteKNNQuery((5,), 3), stats=once)
            assert repeated == once

    def test_unsorted_breaks_normalise(self, road):
        sorted_q = ServiceAreaQuery(0, (150.0, 400.0))
        unsorted_q = ServiceAreaQuery(0, (400.0, 150.0))
        assert unsorted_q.breaks == (150.0, 400.0)
        assert road.execute(unsorted_q) == road.execute(sorted_q)

    def test_zero_break_keeps_coincident_hits_only(self, road, frozen):
        got = road.execute(ServiceAreaQuery(0, (0.0,)))
        assert frozen.execute(ServiceAreaQuery(0, (0.0,))) == got
        assert all(
            entry.distance == 0.0 and entry.bucket == 0 for entry in got
        )

    def test_method_level_validation_matches_dataclass(self, road, frozen):
        for engine in (road, frozen):
            with pytest.raises(ValueError, match="need at least one source"):
                engine.od_matrix([], [0])
            with pytest.raises(ValueError, match="need at least one break"):
                engine.service_area(0, [])
            with pytest.raises(ValueError, match="need at least one path"):
                engine.route_knn([], 2)
            with pytest.raises(ValueError, match="k must be >= 1"):
                engine.route_knn([0], 0)

    def test_unknown_directory_raises_on_every_surface(self, road, frozen):
        for query in QUERIES:
            for engine in (road, frozen):
                with pytest.raises(UnknownDirectoryError):
                    engine.execute(query, directory="nope")

    def test_bucket_entries_carry_their_shape(self, road):
        got = road.execute(ServiceAreaQuery(0, (400.0,)))
        assert all(isinstance(entry, ServiceAreaEntry) for entry in got)
        assert all(entry.bucket == 0 for entry in got)



#: Every object-search kind — each one a consumer of its engine's one
#: sweep — as ``run(engine, node, k, radius, stats)``.
SWEEP_KINDS = {
    "knn": lambda e, node, k, radius, stats: e.knn(node, k, stats=stats),
    "range": lambda e, node, k, radius, stats: e.range(
        node, radius, stats=stats
    ),
    "aggregate_knn": lambda e, node, k, radius, stats: e.aggregate_knn(
        [node, 63], k, stats=stats
    ),
    "service_area": lambda e, node, k, radius, stats: e.service_area(
        node, [radius], stats=stats
    ),
    "route_knn": lambda e, node, k, radius, stats: e.route_knn(
        [0, node], k, stats=stats
    ),
}


@pytest.mark.parametrize("kind", sorted(SWEEP_KINDS))
class TestSweepConsumers:
    """The stop rules' edges behave alike on every consumer of the sweep,
    with whole-``SearchStats`` parity across the two engines."""

    def test_k_beyond_the_objects_and_radius_zero(self, road, frozen, kind):
        run = SWEEP_KINDS[kind]
        charged_stats, frozen_stats = SearchStats(), SearchStats()
        got = run(frozen, 0, 50, 0.0, frozen_stats)
        assert got == run(road, 0, 50, 0.0, charged_stats)
        assert frozen_stats == charged_stats
        if kind in ("range", "service_area"):
            assert got == []  # nothing sits on node 0 itself
            assert frozen_stats.nodes_popped == 1
        else:
            # k=50 over 20 objects: the sweep runs dry and returns them all.
            assert len(got) == len(OBJECTS)

    def test_unknown_node_raises(self, road, frozen, kind):
        from repro.core.frozen import FrozenRoadError
        from repro.core.route_overlay import RouteOverlayError

        run = SWEEP_KINDS[kind]
        with pytest.raises(RouteOverlayError, match="node 999"):
            run(road, 999, 2, 5.0, None)
        with pytest.raises(FrozenRoadError, match="node 999"):
            run(frozen, 999, 2, 5.0, None)
