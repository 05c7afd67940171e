"""ROAD facade: build options, directories, stats, route overlay."""

import pytest

from repro.core.framework import ROAD
from repro.core.object_abstract import counting_abstract
from repro.core.route_overlay import RouteOverlayError
from repro.graph.generators import grid_network
from repro.objects.model import ObjectSet, SpatialObject
from repro.objects.placement import place_clustered, place_uniform
from repro.partition.grid import grid_partition_tree
from repro.storage.pager import PageManager
from tests.oracle import assert_same_result, brute_knn


class TestBuild:
    def test_default_build(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2, fanout=4)
        road.hierarchy.validate()
        assert road.overlay.node_count == medium_grid.num_nodes
        assert road.build_report.total_seconds > 0

    def test_custom_partition_tree(self, medium_grid):
        tree = grid_partition_tree(medium_grid, levels=2)
        road = ROAD.build(medium_grid, partition_tree=tree)
        road.hierarchy.validate()

    def test_no_reduction_build(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2, fanout=4, reduce_shortcuts=False)
        assert road.shortcuts.total(stored=True) == road.shortcuts.total()

    def test_external_pager(self, medium_grid):
        pager = PageManager(buffer_pages=10, name="shared")
        road = ROAD.build(medium_grid, levels=2, pager=pager)
        assert road.pager is pager

    def test_deeper_hierarchy_reduces_leaf_size(self, medium_grid):
        shallow = ROAD.build(medium_grid, levels=1, fanout=4)
        deep = ROAD.build(medium_grid, levels=3, fanout=4)
        assert (
            deep.hierarchy.stats()["avg_leaf_edges"]
            < shallow.hierarchy.stats()["avg_leaf_edges"]
        )


class TestDirectories:
    def test_attach_and_query(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(place_uniform(medium_grid, 10, seed=1))
        assert len(road.knn(0, 3)) == 3

    def test_duplicate_name_rejected(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(place_uniform(medium_grid, 5, seed=1))
        with pytest.raises(ValueError):
            road.attach_objects(place_uniform(medium_grid, 5, seed=2))

    def test_detach(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(place_uniform(medium_grid, 5, seed=1))
        road.detach_objects()
        with pytest.raises(KeyError):
            road.directory()
        with pytest.raises(KeyError):
            road.detach_objects()

    def test_detach_frees_directory_pages(self, medium_grid):
        """Regression: detaching must return every directory page."""
        road = ROAD.build(medium_grid, levels=2)
        before = road.pager.page_count
        road.attach_objects(place_uniform(medium_grid, 40, seed=1))
        assert road.pager.page_count > before
        road.detach_objects()
        assert road.pager.page_count == before

    def test_detach_and_reattach_same_name(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        empty = road.pager.page_count
        for seed in (1, 2, 3):
            road.attach_objects(place_uniform(medium_grid, 6, seed=seed))
            assert len(road.knn(0, 3)) == 3
            road.detach_objects()
            assert road.pager.page_count == empty  # no growth across cycles

    def test_multiple_directories_independent_queries(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(
            place_uniform(medium_grid, 8, seed=1), name="restaurants"
        )
        road.attach_objects(
            place_clustered(medium_grid, 8, clusters=2, seed=2), name="hotels"
        )
        assert set(road.directory_names) == {"restaurants", "hotels"}
        r1 = road.knn(0, 2, directory="restaurants")
        r2 = road.knn(0, 2, directory="hotels")
        assert len(r1) == 2 and len(r2) == 2

    def test_custom_abstract_factory(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        directory = road.attach_objects(
            place_uniform(medium_grid, 5, seed=1),
            abstract_factory=counting_abstract,
        )
        from repro.core.object_abstract import CountingAbstract

        abstract = directory.rnet_abstract(road.hierarchy.root.rnet_id)
        assert isinstance(abstract, CountingAbstract)


class TestRouteOverlay:
    def test_unknown_node_raises(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        with pytest.raises(RouteOverlayError):
            road.overlay.shortcut_tree(10_000)

    def test_neighbours_roundtrip(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        for node in list(medium_grid.node_ids())[:10]:
            assert sorted(road.overlay.shortcut_tree(node).all_edges()) == sorted(
                medium_grid.neighbours(node)
            )

    def test_has_node(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        assert road.overlay.has_node(0)
        assert not road.overlay.has_node(10_000)

    def test_cold_query_charges_io(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(place_uniform(medium_grid, 10, seed=1))
        road.pager.drop_cache()
        road.pager.reset_stats()
        road.knn(0, 3)
        assert road.pager.stats.reads > 0


class TestStats:
    def test_stats_contents(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        road.attach_objects(place_uniform(medium_grid, 10, seed=1))
        stats = road.stats()
        assert stats["levels"] == 2
        assert stats["shortcuts_total"] >= stats["shortcuts_stored"]
        assert stats["overlay_pages"] > 0
        assert "objects" in stats["directories"]

    def test_index_size(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2)
        base = road.index_size_bytes()
        road.attach_objects(place_uniform(medium_grid, 10, seed=1))
        assert road.index_size_bytes() > base
        assert road.index_size_bytes(include_directories=False) <= base


class TestDegenerateEdges:
    def test_update_zero_length_edge_distance(self):
        """Regression: distance/old_distance must not divide by zero."""
        net = grid_network(4, 4, seed=1)
        u, v, _ = sorted(net.edges())[0]
        # Degenerate zero-length segment, as a permissive loader may produce:
        # written past update_edge's positive-distance check.
        net._set_distance(u, v, 0.0)
        assert net.edge_distance(u, v) == net.edge_distance(v, u) == 0.0
        road = ROAD.build(net, levels=2)
        directory = road.attach_objects(
            ObjectSet([SpatialObject(0, (u, v), 0.0)])
        )
        road.update_edge_distance(u, v, 5.0)  # used to raise ZeroDivisionError
        assert net.edge_distance(u, v) == 5.0
        assert directory.get_object(0).delta == 0.0  # pinned at offset 0
        # The far endpoint's delta must be re-derived from the new length
        # (a stale delta(o, v) = 0 would report the object 5.0 too close).
        (_, delta_v), = directory.node_objects(v)
        assert delta_v == pytest.approx(5.0)
        assert_same_result(
            road.knn(u, 1), brute_knn(net, directory.objects, u, 1)
        )
        assert_same_result(
            road.knn(v, 1), brute_knn(net, directory.objects, v, 1)
        )
        # A later, ordinary rescale still works on the repaired edge.
        road.update_edge_distance(u, v, 10.0)
        assert_same_result(
            road.knn(v, 1), brute_knn(net, directory.objects, v, 1)
        )
