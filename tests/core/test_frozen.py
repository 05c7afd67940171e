"""FrozenRoad: compiled fast path equivalence, isolation, batch API.

The ``frozen`` fixture is parametrised over every installed array backend
(list / shm), so the whole equivalence + patch contract runs per
backend.
"""

import dataclasses
import random

import pytest

from repro.baselines.engine import EngineError
from repro.baselines.road_adapter import ROADEngine
from repro.core.framework import ROAD
from repro.core.frozen import FrozenRoad, FrozenRoadError
from repro.core.frozen_backends import installed_backends
from repro.core.search import SearchStats, iter_nearest_objects
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import (
    ANY,
    AggregateKNNQuery,
    KNNQuery,
    Predicate,
    RangeQuery,
)
from repro.queries.workload import mixed_workload
from repro.queries.writes import AddEdge, RemoveEdge
from tests.conftest import random_connected_network
from tests.oracle import random_objects


@pytest.fixture
def built(medium_grid):
    objects = place_uniform(
        medium_grid, 20, seed=11, attr_choices={"type": ["a", "b", "c"]}
    )
    road = ROAD.build(medium_grid, levels=3, fanout=4)
    road.attach_objects(objects)
    return medium_grid, objects, road


@pytest.fixture(params=installed_backends())
def frozen(built, request):
    """One frozen snapshot per installed array backend.

    Every test taking this fixture asserts the compiled fast path — and
    the apply() patch lifecycle — per backend, so "list" and (where the
    host has /dev/shm) "shm" hold the same equivalence contract.
    """
    _, _, road = built
    return road.freeze(backend=request.param)


class TestEquivalence:
    def test_knn_byte_identical(self, built, frozen):
        net, _, road = built
        for node in list(net.node_ids())[::7]:
            for k in (1, 3, 10):
                assert frozen.knn(node, k) == road.knn(node, k)

    def test_range_byte_identical(self, built, frozen):
        net, _, road = built
        for node in list(net.node_ids())[::9]:
            for radius in (0.0, 2.5, 8.0):
                assert frozen.range(node, radius) == road.range(node, radius)

    def test_predicate_byte_identical(self, built, frozen):
        net, _, road = built
        pred = Predicate.of(type="a")
        for node in list(net.node_ids())[::11]:
            assert frozen.knn(node, 4, pred) == road.knn(node, 4, pred)
            assert frozen.range(node, 6.0, pred) == road.range(node, 6.0, pred)

    def test_search_stats_identical(self, built, frozen):
        _, _, road = built
        s_frozen, s_charged = SearchStats(), SearchStats()
        frozen.knn(0, 5, stats=s_frozen)
        road.knn(0, 5, stats=s_charged)
        assert s_frozen == s_charged

    def test_iter_nearest_objects_identical(self, built, frozen):
        _, _, road = built
        lazy = list(frozen.iter_nearest_objects(42))
        charged = list(
            iter_nearest_objects(road.overlay, road.directory(), 42)
        )
        assert lazy == charged


class TestZeroPagerTraffic:
    def test_queries_never_touch_pager(self, built, frozen):
        _, _, road = built
        before = road.pager.stats.snapshot()
        frozen.knn(0, 5)
        frozen.range(5, 7.0, Predicate.of(type="b"))
        list(frozen.iter_nearest_objects(3))
        diff = road.pager.stats.diff(before)
        assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0)


class TestBatch:
    def test_execute_many_matches_individual(self, built, frozen):
        net, _, road = built
        queries = mixed_workload(
            net, 30, k=3, radius=6.0, seed=2,
            predicates=[ANY, Predicate.of(type="a")],
        )
        batch = frozen.execute_many(queries)
        assert batch == [frozen.execute(q) for q in queries]
        assert batch == road.execute_many(queries)

    def test_charged_execute_many_matches_execute(self, built):
        net, _, road = built
        queries = mixed_workload(net, 12, k=2, radius=4.0, seed=5)
        assert road.execute_many(queries) == [road.execute(q) for q in queries]

    def test_execute_many_rejects_unknown_query(self, built, frozen):
        _, _, road = built
        with pytest.raises(TypeError):
            frozen.execute_many([object()])
        with pytest.raises(TypeError):
            road.execute_many([object()])

    def test_predicate_masks_are_shared(self, frozen):
        pred = Predicate.of(type="a")
        frozen.knn(0, 2, pred)
        mask = frozen._state().rnet_masks[pred]
        frozen.range(9, 5.0, pred)
        # compiled once per predicate
        assert frozen._state().rnet_masks[pred] is mask


class TestSnapshotSemantics:
    def test_snapshot_isolated_from_object_churn(self, built, frozen):
        net, _, road = built
        node = 0
        before = frozen.knn(node, 3)
        new_id = road.directory().objects.next_id()
        road.insert_object(SpatialObject(new_id, (0, 1), 0.0))
        assert frozen.knn(node, 3) == before  # snapshot unaffected
        refrozen = road.freeze()
        assert refrozen.knn(node, 3) == road.knn(node, 3)

    def test_unknown_node_raises(self, frozen):
        with pytest.raises(FrozenRoadError):
            frozen.knn(10_000, 1)
        with pytest.raises(FrozenRoadError):
            frozen.range(10_000, 1.0)

    def test_invalid_parameters_raise(self, frozen):
        with pytest.raises(ValueError):
            frozen.knn(0, 0)
        with pytest.raises(ValueError):
            frozen.range(0, -1.0)

    def test_freeze_unknown_directory_raises(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        with pytest.raises(KeyError):
            road.freeze(directory="missing")

    def test_execute_dispatch(self, frozen):
        assert frozen.execute(KNNQuery(0, 2)) == frozen.knn(0, 2)
        assert frozen.execute(RangeQuery(0, 3.0)) == frozen.range(0, 3.0)
        with pytest.raises(TypeError):
            frozen.execute("not a query")

    def test_introspection(self, built, frozen):
        net, _, _ = built
        assert frozen.num_nodes == net.num_nodes
        assert frozen.num_objects == 2 * 20  # one slot per host-edge endpoint
        assert frozen.nbytes > 0
        assert "FrozenRoad" in repr(frozen)


class TestFrozenEngineMode:
    def test_frozen_mode_matches_charged(self, medium_grid):
        objects = place_uniform(medium_grid, 12, seed=4)
        charged = ROADEngine(medium_grid.copy(), objects, levels=2)
        frozen = ROADEngine(medium_grid.copy(), objects, levels=2, mode="frozen")
        for node in (0, 17, 54):
            assert frozen.knn(node, 3) == charged.knn(node, 3)
            assert frozen.range(node, 5.0) == charged.range(node, 5.0)

    def test_refreeze_mode_invalidates_snapshot(self, medium_grid):
        """Attach and detach re-freeze at once: the stale snapshot is
        replaced inside the call, over the updated network, and the
        snapshot is never None in frozen mode."""
        objects = place_uniform(medium_grid, 12, seed=4)
        engine = ROADEngine(medium_grid.copy(), objects, levels=2, mode="frozen")
        stale = engine.frozen
        assert stale is not None
        u, v, d = next(iter(engine.network.edges()))
        engine.update_edge_distance(u, v, d * 3)
        engine.attach_objects(place_uniform(medium_grid, 5, seed=9), name="hotels")
        assert engine.frozen is not None and engine.frozen is not stale
        assert engine.frozen.directory_names == ["objects", "hotels"]
        assert engine.knn(0, 2) == engine.road.knn(0, 2)
        counters = engine.stats()["maintenance"]
        assert "invalidations" not in counters
        assert counters["freezes"] == 2  # construction + the attach
        engine.detach_objects("hotels")
        assert engine.frozen.directory_names == ["objects"]
        assert engine.stats()["maintenance"]["freezes"] == 3

    def test_patch_mode_keeps_snapshot_current(self, medium_grid):
        objects = place_uniform(medium_grid, 12, seed=4)
        engine = ROADEngine(medium_grid.copy(), objects, levels=2, mode="frozen")
        snapshot = engine.frozen
        assert snapshot is not None
        u, v, d = next(iter(engine.network.edges()))
        engine.update_edge_distance(u, v, d * 3)
        assert engine.frozen is snapshot  # patched in place, never dropped
        assert engine.knn(0, 3) == engine.road.knn(0, 3)
        counters = engine.stats()["maintenance"]
        assert counters["updates"] == 1
        assert counters["patches_applied"] + counters["patch_fallbacks"] == 1

    def test_stats_surface_last_report(self, medium_grid):
        objects = place_uniform(medium_grid, 12, seed=4)
        engine = ROADEngine(medium_grid.copy(), objects, levels=2, mode="frozen")
        assert engine.stats()["last_report"] is None
        new_id = engine.objects.next_id()
        u, v, _ = next(iter(engine.network.edges()))
        engine.insert_object(SpatialObject(new_id, (u, v), 0.0))
        report = engine.stats()["last_report"]
        assert report is not None and report.kind == "insert_object"
        assert report.obj.object_id == new_id
        assert engine.last_report is report
        removed = engine.delete_object(new_id)
        assert removed.object_id == new_id
        assert engine.stats()["last_report"].kind == "delete_object"
        assert engine.stats()["maintenance"]["updates"] == 2

    def test_invalid_mode_rejected(self, medium_grid):
        with pytest.raises(EngineError):
            ROADEngine(
                medium_grid.copy(),
                place_uniform(medium_grid, 3, seed=1),
                levels=2,
                mode="warp",
            )


class TestIncrementalStats:
    def test_partial_iterator_reports_stats(self, built, frozen):
        """A sweep closed after one pull reports the work done so far —
        counters and footprint — exactly like the charged iterator."""
        _, _, road = built
        s_frozen, s_charged = SearchStats(), SearchStats()
        lazy = frozen.iter_nearest_objects(0, stats=s_frozen)
        charged = iter_nearest_objects(
            road.overlay, road.directory(), 0, stats=s_charged
        )
        assert next(lazy) == next(charged)
        lazy.close()
        charged.close()
        assert s_frozen.objects_popped == s_charged.objects_popped == 1
        assert s_frozen == s_charged


class TestFootprintRule:
    """The footprint is every node the sweep pushed: settled, still
    queued, or popped beyond the bound — whichever engine swept.

    The charged frontier keeps a push to an already-settled node as a
    stale duplicate; the frozen sweep skips it.  Here that makes the two
    engines trip the radius on different entries: from `Q`, `X` settles
    at 2 via `M`; `N` settles at 3 and relaxes `X` again (at 9) and the
    unsettled `Y` (at 9.5).  With radius 8 the charged sweep breaks on
    the stale `X`, the frozen one on the live `Y` — which a "drop the
    breaking pop" footprint loses on one engine only.
    """

    Q, M, X, N, Y = range(5)

    @pytest.fixture
    def road(self):
        Q, M, X, N, Y = range(5)
        net = RoadNetwork()
        for node, (x, y) in enumerate(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 3.0), (0.0, 9.5)]
        ):
            net.add_node(node, x, y)
        edges = [(Q, M, 1.0), (M, X, 1.0), (Q, N, 3.0), (N, X, 6.0), (N, Y, 6.5)]
        objects = ObjectSet()
        # One object near the first endpoint of every edge, so no Rnet is
        # bypassed and no object entry lands between the radius and Y.
        for object_id, (u, v, weight) in enumerate(edges):
            net.add_edge(u, v, weight)
            objects.add(SpatialObject(object_id, (u, v), 0.1))
        road = ROAD.build(net, levels=2, fanout=2)
        road.attach_objects(objects)
        return road

    @pytest.mark.parametrize("backend", installed_backends())
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(
                lambda e, stats: e.range(0, 8.0, stats=stats), id="range"
            ),
            pytest.param(
                lambda e, stats: e.service_area(0, [4.0, 8.0], stats=stats),
                id="service_area",
            ),
            pytest.param(
                # k-th answer at 1.1 (via M); the tie drain trips on X at 2
                lambda e, stats: e.route_knn([0], 3, stats=stats),
                id="route_knn-tie-drain",
            ),
        ],
    )
    def test_whole_stats_match_across_engines(self, road, backend, run):
        frozen = road.freeze(backend=backend)
        s_frozen, s_charged = SearchStats(), SearchStats()
        assert run(frozen, s_frozen) == run(road, s_charged)
        assert s_frozen == s_charged

    def test_the_node_that_tripped_the_bound_is_examined(self, road):
        for engine in (road, road.freeze()):
            stats = SearchStats()
            engine.range(self.Q, 8.0, stats=stats)
            assert stats.nodes_popped == 4  # Q, M, X, N settle; Y does not
            assert stats.visited_nodes == {self.Q, self.M, self.X, self.N, self.Y}
            stats = SearchStats()
            engine.route_knn([self.Q], 3, stats=stats)
            assert stats.nodes_popped == 2  # Q and M
            assert stats.visited_nodes == {self.Q, self.M, self.X, self.N}

    def test_range_whole_stats_parity_on_the_largest_network(self):
        """Whole SearchStats charged == frozen on every backend, over 240
        range queries on a 60-node random network, and every examined
        Rnet took the one side its abstract answer names."""
        rnd = random.Random(15)
        network = random_connected_network(rnd, 60, 30)
        road = ROAD.build(network, levels=3, fanout=4)
        directory = road.attach_objects(random_objects(rnd, network, 12))
        snapshots = [road.freeze(backend=name) for name in installed_backends()]
        for node in range(network.num_nodes):
            for radius in (3.0, 7.0, 12.0, 20.0):
                charged = SearchStats()
                want = road.range(node, radius, stats=charged)
                for frozen in snapshots:
                    got = SearchStats()
                    assert frozen.range(node, radius, stats=got) == want
                    assert got == charged, (frozen.backend, node, radius)
                assert charged.bypassed_rnets == {
                    rnet_id
                    for rnet_id in charged.visited_rnets
                    if not directory.rnet_may_contain(rnet_id, ANY)
                }
        for frozen in snapshots:
            frozen.close()


def _brute_force_footprint(frozen, visited, heap):
    """The definition `_flush_footprint` must reproduce: every settled
    code plus the heap's unpopped *node* remnant, as real node ids."""
    node_ids = frozen.node_ids
    return {node_ids[c] for c, seen in enumerate(visited) if seen} | {
        node_ids[c] for _, _, c in heap if c >= 0
    }


class TestFootprint:
    """`_flush_footprint` maps the sweep's settled codes instead of
    walking |V|; the slot -> Rnet-id table it translates through is
    cached per snapshot."""

    @pytest.mark.parametrize(
        "settled",
        [
            pytest.param([], id="nothing-settled"),
            pytest.param([0], id="code-0"),
            pytest.param([-1], id="last-code"),
            pytest.param([0, -1], id="both-ends"),
            pytest.param([3, 4, 5, 9, 10, 11, 12], id="adjacent-runs"),
            pytest.param([0, 1, 2, -3, -2, -1], id="runs-at-both-ends"),
            pytest.param(range(100), id="everything"),
        ],
    )
    def test_matches_the_brute_force_definition(self, frozen, settled):
        visited = bytearray(frozen.num_nodes)
        codes = [code % frozen.num_nodes for code in settled]
        for code in codes:
            visited[code] = 1
        # Remnant: one unsettled node, one settled node, one object entry
        # (objects ride the heap as ~object_id and are not nodes).
        heap = [(1.0, 1, 7), (1.5, 2, 4), (2.0, 3, ~3)]
        stats = SearchStats()
        frozen._flush_footprint(stats, codes, set(), (), heap)
        assert stats.visited_nodes == _brute_force_footprint(frozen, visited, heap)
        assert stats.visited_rnets == set()

    def test_every_search_loop_flushes_the_brute_force_set(
        self, built, frozen, monkeypatch
    ):
        """Real sweeps on every backend: the one `_sweep` flushes once
        per query, whatever its stop rule."""
        net, _, road = built
        real, settled_counts = frozen._flush_footprint, []

        def spy(stats, settled, rnet_slots, may, heap=()):
            assert not stats.visited_nodes
            assert len(set(settled)) == len(settled)  # each code once
            visited = bytearray(frozen.num_nodes)
            for code in settled:
                visited[code] = 1
            real(stats, settled, rnet_slots, may, heap)
            assert stats.visited_nodes == _brute_force_footprint(
                frozen, visited, heap
            )
            assert stats.bypassed_rnets <= stats.visited_rnets
            settled_counts.append(len(settled))

        monkeypatch.setattr(frozen, "_flush_footprint", spy)
        for node in list(net.node_ids())[::13]:
            for run in (
                lambda engine, stats: engine.knn(node, 5, stats=stats),
                lambda engine, stats: engine.range(node, 2.5, stats=stats),
            ):
                s_frozen, s_charged = SearchStats(), SearchStats()
                assert run(frozen, s_frozen) == run(road, s_charged)
                assert s_frozen == s_charged  # footprints included
        assert len(settled_counts) == 16 and all(settled_counts)

    @pytest.mark.parametrize("backend", installed_backends())
    def test_slot_table_is_cached_and_follows_a_recompile(self, backend):
        # Two road segments with no edge between them: each level-1
        # Rnet is a whole component, has no border, and so appears in no
        # shortcut tree.  Joining them promotes node 10 to a border — the
        # level-1 Rnets enter the compiled slot space and the leaf
        # Rnets' slots renumber.
        net = RoadNetwork()
        for i in range(6):
            net.add_node(i, float(i), 0.0)
            net.add_node(10 + i, float(i), 50.0)
        for i in range(5):
            net.add_edge(i, i + 1, 1.0)
            net.add_edge(10 + i, 11 + i, 1.0)
        road = ROAD.build(net, levels=2, fanout=2)
        road.attach_objects(place_uniform(net, 4, seed=3))
        frozen = road.freeze(backend=backend)
        frozen.knn(0, 3, stats=SearchStats())
        table = frozen._rnet_ids_by_slot()
        assert frozen._rnet_ids_by_slot() is table  # one tuple per snapshot
        assert sorted(table) == sorted(frozen._rnet_index)

        report = road.add_edge(5, 10, 2.0)
        assert report.structural and report.promoted_borders
        assert frozen.apply(report) == "recompiled"
        fresh = frozen._rnet_ids_by_slot()
        assert len(fresh) > len(table) and fresh[: len(table)] != table
        for node in (0, 5, 10):
            s_frozen, s_charged = SearchStats(), SearchStats()
            assert frozen.knn(node, 3, stats=s_frozen) == road.knn(
                node, 3, stats=s_charged
            )
            assert s_frozen.visited_rnets == s_charged.visited_rnets != set()
            assert s_frozen == s_charged

    def test_slot_table_survives_a_cold_start(self, built, frozen):
        """`from_parts` (snapshot files, shm attach) starts uncached."""
        _, _, road = built
        parts = frozen.export_parts()
        clone = FrozenRoad.from_parts(backend=frozen.backend, **parts)
        assert clone._rnet_ids_by_slot() == tuple(parts["rnet_slots"])
        s_clone, s_charged = SearchStats(), SearchStats()
        clone.knn(0, 5, stats=s_clone)
        road.knn(0, 5, stats=s_charged)
        assert s_clone == s_charged


class TestMaskCacheBound:
    def test_mask_caches_are_bounded(self, frozen):
        from repro.core.frozen import MAX_CACHED_PREDICATES

        for i in range(MAX_CACHED_PREDICATES + 40):
            frozen.knn(0, 1, Predicate.of(type=f"p{i}"))
        assert len(frozen._state().rnet_masks) <= MAX_CACHED_PREDICATES
        assert len(frozen._state().obj_masks) <= MAX_CACHED_PREDICATES
        # An evicted predicate still answers correctly (recompiled).
        assert frozen.knn(0, 2, Predicate.of(type="a")) == frozen.knn(
            0, 2, Predicate.of(type="a")
        )


class TestApplyPatch:
    def test_edge_weight_patch_matches_fresh_freeze(self, built, frozen):
        net, _, road = built
        u, v, d = next(iter(net.edges()))
        report = road.update_edge_distance(u, v, d * 2.5)
        frozen.apply(report)
        fresh = road.freeze()
        for node in (0, 17, 54, 99):
            s_patched, s_fresh = SearchStats(), SearchStats()
            assert frozen.knn(node, 4, stats=s_patched) == fresh.knn(
                node, 4, stats=s_fresh
            )
            assert s_patched == s_fresh
            assert frozen.range(node, 6.0) == fresh.range(node, 6.0)

    def test_patched_snapshot_stays_pager_free(self, built, frozen):
        """A delta-patch and a full recompile alike read the road
        uncharged (stored_tree / peek_entries / iter_trees): snapshot
        bookkeeping must not pollute the maintenance I/O profile."""
        net, _, road = built
        u, v, d = next(iter(net.edges()))
        a, b = 0, net.num_nodes - 1
        assert not net.has_edge(a, b)
        writes = [
            (lambda: road.update_edge_distance(u, v, d * 1.7), "patched"),
            (lambda: road.add_edge(a, b, 3.0), "recompiled"),
            (lambda: road.remove_edge(a, b), "recompiled"),
        ]
        for write, expected in writes:
            report = write()
            before = road.pager.stats.snapshot()
            assert frozen.apply(report) == expected
            diff = road.pager.stats.diff(before)
            assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0)
            assert frozen.knn(a, 4) == road.freeze().knn(a, 4)
        before = road.pager.stats.snapshot()
        frozen.knn(0, 5)
        frozen.range(9, 4.0, Predicate.of(type="a"))
        diff = road.pager.stats.diff(before)
        assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0)

    def test_object_patch_is_pager_free(self, built, frozen):
        _, _, road = built
        u, v, d = next(iter(road.network.edges()))
        report = road.insert_object(
            SpatialObject(road.directory().objects.next_id(), (u, v), d / 2)
        )
        before = road.pager.stats.snapshot()
        assert frozen.apply(report) == "patched"
        diff = road.pager.stats.diff(before)
        assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0)

    def test_object_delta_patch(self, built, frozen):
        net, _, road = built
        u, v, d = next(iter(net.edges()))
        new_id = road.directory().objects.next_id()
        report = road.insert_object(
            SpatialObject(new_id, (u, v), d / 3, {"type": "a"})
        )
        assert frozen.apply(report) == "patched"
        assert frozen.knn(u, 1) == road.knn(u, 1)
        report = road.delete_object(new_id)
        assert frozen.apply(report) == "patched"
        fresh = road.freeze()
        for node in (u, v, 42):
            assert frozen.knn(node, 5) == fresh.knn(node, 5)

    def test_update_attrs_patch(self, built, frozen):
        net, _, road = built
        target = road.directory().objects.ids()[0]
        report = road.update_object_attrs(target, {"type": "fuel"})
        assert report.kind == "update_object_attrs"
        assert frozen.apply(report) == "patched"
        pred = Predicate.of(type="fuel")
        fresh = road.freeze()
        for node in (0, 42, 99):
            assert frozen.knn(node, 3, pred) == fresh.knn(node, 3, pred)
            assert frozen.knn(node, 3, pred) == road.knn(node, 3, pred)

    def test_engine_structural_updates_reconcile_snapshot(self, medium_grid):
        objects = place_uniform(medium_grid, 12, seed=4)
        engine = ROADEngine(medium_grid.copy(), objects, levels=2, mode="frozen")
        a, b = 0, engine.network.num_nodes - 1
        report = engine.write(AddEdge(a, b, 2.0))
        assert report.structural
        assert engine.knn(a, 3) == engine.road.knn(a, 3)
        if not engine.objects.on_edge(a, b):
            engine.write(RemoveEdge(a, b))
            assert engine.knn(a, 3) == engine.road.knn(a, 3)
        counters = engine.stats()["maintenance"]
        assert counters["updates"] >= 1

    def test_structural_update_falls_back_to_recompile(self, built, frozen):
        net, _, road = built
        a, b = 0, net.num_nodes - 1
        assert not net.has_edge(a, b)
        report = road.add_edge(a, b, 3.0)
        assert report.structural
        assert frozen.apply(report) == "recompiled"
        fresh = road.freeze()
        for node in (a, b, 42):
            assert frozen.knn(node, 4) == fresh.knn(node, 4)

    def test_apply_while_a_sweep_is_suspended(self, built, frozen):
        """A paused iterator holds the array views in its frame, yet a
        size-changing object splice still patches: lists export nothing,
        and shm vectors splice inside their segment."""
        _, _, road = built
        lazy = frozen.iter_nearest_objects(0)
        next(lazy)
        u, v, d = next(iter(road.network.edges()))
        report = road.insert_object(
            SpatialObject(road.directory().objects.next_id(), (u, v), d / 2)
        )
        assert frozen.apply(report) == "patched"
        lazy.close()
        fresh = road.freeze()
        for node in (u, v, 42):
            assert frozen.knn(node, 5) == fresh.knn(node, 5)

    def test_apply_without_source_raises(self, built):
        _, _, road = built
        orphan = FrozenRoad(
            dict(road.overlay.iter_trees()),
            directories={"objects": road.directory().export_entries()},
            hierarchy=road.hierarchy,
        )
        u, v, d = next(iter(road.network.edges()))
        report = road.update_edge_distance(u, v, d * 2)
        with pytest.raises(FrozenRoadError):
            orphan.apply(report)
        orphan.apply(report, road)  # explicit road works
        assert orphan.knn(0, 3) == road.freeze().knn(0, 3)

    def test_object_report_without_directory_raises(self, built, frozen):
        """Every object report the ROAD emits names its directory; a
        hand-built one that does not is refused, like one with no
        object, before anything is patched."""
        _, _, road = built
        u, v, d = next(iter(road.network.edges()))
        obj = SpatialObject(road.directory().objects.next_id(), (u, v), d / 2)
        report = dataclasses.replace(road.insert_object(obj), directory=None)
        before = frozen.knn(u, 5)
        with pytest.raises(FrozenRoadError, match="names no directory"):
            frozen.apply(report)
        assert frozen.knn(u, 5) == before

    def test_report_identities_populated(self, built):
        net, _, road = built
        u, v, d = next(iter(net.edges()))
        report = road.update_edge_distance(u, v, d * 4.0)
        assert report.kind == "update_edge_distance"
        assert {u, v} <= report.dirty_nodes
        assert report.edge == (min(u, v), max(u, v))
        assert report.refreshed_tree_nodes == len(report.dirty_nodes)


def _sweep_every_node(engine, predicate=ANY):
    """Every node's kNN answer and whole SearchStats; warms the tables."""
    rows = []
    for node in sorted(engine.node_ids):
        stats = SearchStats()
        rows.append((engine.knn(node, 3, predicate, stats=stats), stats))
    return rows


class TestPathTables:
    """The cached ChoosePath results follow every write that can change
    them.  Each case warms the tables with a sweep from every node,
    writes, then holds every node's answer and whole SearchStats to a
    fresh freeze."""

    #: No object of the `built` fixture has this type, so every Rnet's
    #: bit starts clear and every border bypasses.
    RARE = Predicate.of(type="z")

    @staticmethod
    def assert_fresh(frozen, road, predicate=ANY):
        fresh = road.freeze(backend=frozen.backend)
        assert _sweep_every_node(frozen, predicate) == _sweep_every_node(
            fresh, predicate
        )
        fresh.close()

    def test_a_reweigh_resets_the_rewritten_nodes_only(self, built, frozen):
        net, _, road = built
        _sweep_every_node(frozen)
        u, v, d = next(iter(net.edges()))
        cu = frozen._code(u)
        assert frozen._paths[cu] is not None or any(
            cu in table.pairs for table in frozen._state().rnet_masks.values()
        )
        report = road.update_edge_distance(u, v, d * 3.0)
        assert frozen.apply(report) == "patched"
        dirty = {frozen._code(n) for n in report.dirty_nodes | {u, v}}
        assert all(frozen._paths[code] is None for code in dirty)
        # Precise: the nodes the write did not rewrite keep their entries.
        assert any(
            frozen._paths[code] is not None
            for code in range(frozen.num_nodes)
            if code not in dirty
        )
        self.assert_fresh(frozen, road)

    def test_an_insert_that_flips_a_leaf_bit(self, built, frozen):
        net, _, road = built
        _sweep_every_node(frozen, self.RARE)
        table = frozen._state().rnet_masks[self.RARE]
        assert table.pairs and not any(table.may)
        u, v, d = sorted(net.edges())[len(list(net.edges())) // 2]
        report = road.insert_object(
            SpatialObject(
                road.directory().objects.next_id(), (u, v), d / 2, {"type": "z"}
            )
        )
        assert frozen.apply(report) == "patched"
        leaf = road.hierarchy.leaf_of_edge(u, v).rnet_id
        assert table.may[frozen._rnet_index[leaf]]
        self.assert_fresh(frozen, road, self.RARE)

    def test_a_delete_that_clears_it(self, built, frozen):
        net, _, road = built
        u, v, d = sorted(net.edges())[len(list(net.edges())) // 2]
        new_id = road.directory().objects.next_id()
        report = road.insert_object(
            SpatialObject(new_id, (u, v), d / 2, {"type": "z"})
        )
        assert frozen.apply(report) == "patched"
        _sweep_every_node(frozen, self.RARE)
        table = frozen._state().rnet_masks[self.RARE]
        assert table.pairs and any(table.may)
        assert frozen.apply(road.delete_object(new_id)) == "patched"
        assert not any(table.may)
        self.assert_fresh(frozen, road, self.RARE)

    def test_a_sweep_closed_after_a_reset_still_charges(self, built, frozen):
        """Closing a tracked sweep after a patch reset a node it settled
        recomputes that node's charges instead of failing."""
        net, _, road = built
        u, v, d = next(iter(net.edges()))
        stats = SearchStats()
        lazy = frozen.iter_nearest_objects(u, stats=stats)
        next(lazy)
        assert frozen.apply(road.update_edge_distance(u, v, d * 3.0)) == (
            "patched"
        )
        lazy.close()
        assert u in stats.visited_nodes
        assert stats.nodes_popped and stats.edges_relaxed

    @pytest.mark.skipif(
        "shm" not in installed_backends(), reason="needs the shm backend"
    )
    def test_a_worker_after_an_arrays_sync(self, built):
        """A process worker learns of a reweigh only by the ``"arrays"``
        sync, which names no node: it must drop every cached entry."""
        net, _, road = built
        primary = road.freeze(backend="shm")
        worker = FrozenRoad.from_manifest(primary.shm_manifest())
        _sweep_every_node(worker)
        u, v, d = next(iter(net.edges()))
        assert primary.apply(road.update_edge_distance(u, v, d * 3.0)) == (
            "patched"
        )
        worker.refresh_views()  # the worker's "arrays" sync
        self.assert_fresh(worker, road)
        worker.close()
        primary.close()


class TestBackends:
    def test_memory_stats_sanity(self, built, frozen):
        stats = frozen.memory_stats()
        assert stats["backend"] == frozen.backend
        assert stats["total_bytes"] > 0
        assert stats["payload_bytes"] == frozen.nbytes
        assert stats["elements"] == sum(
            len(a) for a in frozen._arrays().values()
        )
        assert set(stats["arrays"]) == set(frozen._arrays())
        assert stats["object_refs"] == frozen.num_objects
        # typed buffers hold ~the payload; boxed lists pay several times it
        if frozen.backend == "list":
            assert stats["total_bytes"] > 2 * stats["payload_bytes"]
        else:
            assert stats["total_bytes"] < 2 * stats["payload_bytes"]

    def test_path_tables_accounted(self, frozen):
        stats = frozen.memory_stats()
        assert stats["path_shared_entries"] == stats["path_table_entries"] == 0
        swept = SearchStats()
        frozen.range(0, 1e9, stats=swept)
        stats = frozen.memory_stats()
        # One entry per settled node: shared if it is not a border.
        assert stats["path_shared_entries"] + stats["path_table_entries"] == (
            swept.nodes_popped
        )
        assert stats["path_shared_bytes"] > 0 and stats["path_table_bytes"] > 0
        per_directory = stats["directories"].values()
        assert stats["path_table_bytes"] == sum(
            d["path_table_bytes"] for d in per_directory
        )
        frozen.refresh_views()
        assert frozen.memory_stats()["path_shared_entries"] == 0

    def test_mask_cache_accounted(self, frozen):
        before = frozen.memory_stats()["mask_cache_bytes"]
        frozen.knn(0, 2, Predicate.of(type="a"))
        stats = frozen.memory_stats()
        assert stats["mask_cache_entries"] == 2  # rnet + object masks
        assert stats["mask_cache_bytes"] > before

    def test_unknown_backend_rejected(self, built):
        _, _, road = built
        with pytest.raises(ValueError):
            road.freeze(backend="arrow")
        # the engine takes no layout at all: its snapshot is a list one
        with pytest.raises(TypeError):
            ROADEngine(
                road.network.copy(),
                place_uniform(road.network, 3, seed=1),
                levels=2,
                backend="arrow",
            )

    def test_numpy_backend_is_gone(self, built):
        """freeze(backend="numpy") is an unknown name like any other."""
        _, _, road = built
        with pytest.raises(
            ValueError, match=r"must be one of \('list', 'shm'\)"
        ):
            road.freeze(backend="numpy")

    def test_engine_backend_plumbing(self, medium_grid):
        objects = place_uniform(medium_grid, 12, seed=4)
        engine = ROADEngine(
            medium_grid.copy(), objects, levels=2, mode="frozen"
        )
        assert engine.frozen.backend == "list"
        stats = engine.stats()
        assert stats["frozen_backend"] == "list"
        assert stats["frozen_memory"]["backend"] == "list"
        # the patch lifecycle keeps the snapshot on the same backend
        u, v, d = next(iter(engine.network.edges()))
        engine.update_edge_distance(u, v, d * 2)
        assert engine.frozen.backend == "list"

    def test_backend_survives_recompile(self, built, frozen):
        net, _, road = built
        a, b = 0, net.num_nodes - 1
        if net.has_edge(a, b):
            pytest.skip("grid already has the corner edge")
        backend = frozen.backend
        report = road.add_edge(a, b, 3.0)
        assert frozen.apply(report) == "recompiled"
        assert frozen.backend == backend
        assert frozen.knn(0, 3) == road.freeze(backend=backend).knn(0, 3)


class TestMultiDirectory:
    @pytest.fixture
    def multi(self, medium_grid):
        hotels = place_uniform(
            medium_grid, 9, seed=23, attr_choices={"type": ["h1", "h2"]}
        )
        objects = place_uniform(
            medium_grid, 20, seed=11, attr_choices={"type": ["a", "b", "c"]}
        )
        road = ROAD.build(medium_grid, levels=3, fanout=4)
        road.attach_objects(objects)
        road.attach_objects(hotels, name="hotels")
        return road, objects, hotels

    def test_default_freeze_compiles_all_attached(self, multi):
        road, _, _ = multi
        frozen = road.freeze()
        assert frozen.directory_names == ["objects", "hotels"]
        assert frozen.default_directory == "objects"

    def test_per_directory_queries_match_charged(self, multi):
        road, _, _ = multi
        frozen = road.freeze()
        for node in (0, 17, 54):
            for name in ("objects", "hotels"):
                assert frozen.knn(node, 3, directory=name) == road.knn(
                    node, 3, directory=name
                )
                assert frozen.range(node, 6.0, directory=name) == road.range(
                    node, 6.0, directory=name
                )
                assert frozen.aggregate_knn(
                    [node, 42], 2, directory=name
                ) == road.aggregate_knn([node, 42], 2, directory=name)

    def test_entry_arrays_shared_not_duplicated(self, multi):
        road, _, _ = multi
        # The entry/shortcut/edge arrays are compiled once: two single
        # snapshots hold close to twice the combined one's resident
        # bytes (1.93x here, 1.96x at 2,116 nodes), on every backend.
        for backend in installed_backends():
            combined = road.freeze(backend=backend)
            singles = [
                road.freeze(directory=name, backend=backend)
                for name in ("objects", "hotels")
            ]
            resident = sum(s.memory_stats()["total_bytes"] for s in singles)
            assert resident >= 1.8 * combined.memory_stats()["total_bytes"]

    def test_apply_patches_every_directory(self, multi):
        road, _, hotels_set = multi
        frozen = road.freeze()
        u, v, d = next(iter(road.network.edges()))
        # Object churn in the named provider.
        report = road.insert_object(
            SpatialObject(hotels_set.next_id(), (u, v), d / 2, {"type": "h1"}),
            directory="hotels",
        )
        assert report.directory == "hotels"
        assert frozen.apply(report) == "patched"
        # Edge rescale touches both providers' spans.
        report = road.update_edge_distance(u, v, d * 1.5)
        assert frozen.apply(report) in ("patched", "recompiled")
        for name in ("objects", "hotels"):
            fresh = road.freeze(directory=name)
            for node in (u, v, 42):
                assert frozen.knn(node, 4, directory=name) == fresh.knn(node, 4)

    def test_masks_are_per_directory(self, multi):
        road, _, _ = multi
        frozen = road.freeze()
        pred = Predicate.of(type="h1")
        hotels = frozen.knn(0, 3, pred, directory="hotels")
        objects = frozen.knn(0, 3, pred, directory="objects")
        assert hotels  # the hotels provider has h1 objects...
        assert objects == []  # ...the default provider does not
        assert frozen._state("hotels").rnet_masks[pred] is not (
            frozen._state("objects").rnet_masks[pred]
        )

    def test_memory_stats_per_directory_breakdown(self, multi):
        road, _, _ = multi
        frozen = road.freeze()
        stats = frozen.memory_stats()
        assert set(stats["directories"]) == {"objects", "hotels"}
        assert all(
            d["object_array_bytes"] > 0 for d in stats["directories"].values()
        )
        assert stats["directories"]["objects"]["object_refs"] == 2 * 20
        assert stats["directories"]["hotels"]["object_refs"] == 2 * 9
        assert stats["object_refs"] == 2 * (20 + 9)
        # prefixed per-directory object arrays appear in the accounting
        assert "objects:obj_id" in stats["arrays"]
        assert "hotels:obj_id" in stats["arrays"]

    def test_unknown_directory_raises_on_query(self, multi):
        from repro.core.dispatch import UnknownDirectoryError

        road, _, _ = multi
        frozen = road.freeze()
        with pytest.raises(UnknownDirectoryError):
            frozen.knn(0, 2, directory="parking")
        with pytest.raises(UnknownDirectoryError):
            list(frozen.iter_nearest_objects(0, directory="parking"))

    def test_uncompiled_directory_churn_is_free_noop(self, multi):
        """Churn in a directory the snapshot never compiled patches
        nothing — and must not invalidate the cached query views."""
        road, _, hotels_set = multi
        frozen = road.freeze(directory="objects")  # hotels NOT compiled
        frozen.knn(0, 2)  # builds the cached views
        views = frozen._views
        assert views is not None
        u, v, d = next(iter(road.network.edges()))
        report = road.insert_object(
            SpatialObject(hotels_set.next_id(), (u, v), d / 2),
            directory="hotels",
        )
        assert frozen.apply(report) == "patched"
        assert frozen._views is views  # the no-op kept the caches
        assert frozen.knn(0, 2) == road.freeze(directory="objects").knn(0, 2)

    def test_uncompiled_churn_noop_without_source_road(self, medium_grid):
        """A no-op churn report needs no live source ROAD: a pure-serving
        snapshot whose road was dropped keeps serving through it."""
        import gc

        hotels = place_uniform(medium_grid, 6, seed=3)
        objects = place_uniform(medium_grid, 8, seed=4)
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(objects)
        road.attach_objects(hotels, name="hotels")
        frozen = road.freeze(directory="objects")  # hotels NOT compiled
        u, v, d = next(iter(road.network.edges()))
        report = road.insert_object(
            SpatialObject(hotels.next_id(), (u, v), d / 2),
            directory="hotels",
        )
        answers = frozen.knn(0, 2)
        del road
        gc.collect()
        assert frozen.apply(report) == "patched"
        assert frozen.knn(0, 2) == answers

    def test_recompile_keeps_directory_set_and_default(self, multi):
        road, _, _ = multi
        frozen = road.freeze(directories=["hotels", "objects"], default="hotels")
        a, b = 0, road.network.num_nodes - 1
        if road.network.has_edge(a, b):
            pytest.skip("grid already has the corner edge")
        report = road.add_edge(a, b, 3.0)
        assert frozen.apply(report) == "recompiled"
        assert frozen.directory_names == ["hotels", "objects"]
        assert frozen.default_directory == "hotels"


class TestFrozenAggregate:
    def test_aggregate_matches_charged(self, built, frozen):
        _, _, road = built
        for agg in ("sum", "max", "min"):
            assert frozen.aggregate_knn([0, 55, 99], 4, agg) == road.aggregate_knn(
                [0, 55, 99], 4, agg
            )

    def test_aggregate_with_predicate(self, built, frozen):
        _, _, road = built
        pred = Predicate.of(type="a")
        assert frozen.aggregate_knn([3, 77], 3, "sum", pred) == road.aggregate_knn(
            [3, 77], 3, "sum", pred
        )

    def test_aggregate_query_dispatch(self, built, frozen):
        _, _, road = built
        query = AggregateKNNQuery((0, 99), 3, "max")
        assert frozen.execute(query) == road.execute(query)
        assert frozen.execute_many([query]) == road.execute_many([query])

    def test_aggregate_flushes_every_expansion_before_returning(
        self, built, frozen
    ):
        """`aggregate_knn` closes its sweeps, so each one's counters and
        footprint are in `stats` by the time the answer is."""
        _, _, road = built
        s_frozen, s_charged = SearchStats(), SearchStats()
        assert frozen.aggregate_knn(
            [0, 55, 99], 3, stats=s_frozen
        ) == road.aggregate_knn([0, 55, 99], 3, stats=s_charged)
        assert s_frozen == s_charged
        assert {0, 55, 99} <= s_frozen.visited_nodes
        assert s_frozen.nodes_popped >= 3 and s_frozen.visited_rnets

    def test_aggregate_zero_pager_traffic(self, built, frozen):
        _, _, road = built
        before = road.pager.stats.snapshot()
        frozen.aggregate_knn([0, 55], 3, "sum")
        diff = road.pager.stats.diff(before)
        assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0)

    def test_aggregate_through_engine_modes(self, medium_grid):
        objects = place_uniform(medium_grid, 12, seed=4)
        charged = ROADEngine(medium_grid.copy(), objects, levels=2)
        frozen = ROADEngine(medium_grid.copy(), objects, levels=2, mode="frozen")
        query = AggregateKNNQuery((0, 42, 99), 3, "sum")
        assert charged.execute(query) == frozen.execute(query)
        assert charged.aggregate_knn([0, 9], 2) == frozen.aggregate_knn([0, 9], 2)
