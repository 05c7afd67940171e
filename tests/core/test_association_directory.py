"""Association Directory: Figure 7 semantics, object updates (Section 5.1)."""

import pytest

from repro import ROAD
from repro.core.association_directory import AssociationDirectory, DirectoryError
from repro.core.object_abstract import bloom_abstract
from repro.core.rnet import RnetHierarchy
from repro.objects.model import ObjectSet, SpatialObject
from repro.objects.placement import place_uniform
from repro.partition.hierarchy import build_partition_tree
from repro.queries.types import ANY, Predicate
from repro.storage.pager import PageManager


@pytest.fixture
def setting(medium_grid):
    tree = build_partition_tree(medium_grid, levels=2, fanout=4)
    hierarchy = RnetHierarchy(medium_grid, tree)
    pager = PageManager(buffer_pages=50)
    return medium_grid, hierarchy, pager


def make_directory(setting, objects=None, **kwargs):
    net, hierarchy, pager = setting
    return AssociationDirectory(pager, net, hierarchy, objects, **kwargs)


def some_edge(net, index=0):
    return sorted((u, v) for u, v, _ in net.edges())[index]


class TestBuild:
    def test_objects_attached_to_both_endpoints(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        d = net.edge_distance(u, v)
        obj = SpatialObject(1, (u, v), d / 4)
        ad = make_directory(setting, ObjectSet([obj]))
        (got_u, delta_u), = ad.node_objects(u)
        (got_v, delta_v), = ad.node_objects(v)
        assert got_u.object_id == got_v.object_id == 1
        assert delta_u == pytest.approx(d / 4)
        assert delta_v == pytest.approx(3 * d / 4)

    def test_empty_nodes_absent(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(setting, ObjectSet([SpatialObject(1, (u, v), 0.0)]))
        far_node = max(net.node_ids())
        if far_node not in (u, v):
            assert ad.node_objects(far_node) == []

    def test_abstracts_along_ancestor_chain(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(setting, ObjectSet([SpatialObject(1, (u, v), 0.0)]))
        leaf = hierarchy.leaf_of_edge(u, v)
        for rnet in hierarchy.ancestors(leaf.rnet_id):
            assert ad.rnet_may_contain(rnet.rnet_id, ANY)

    def test_object_free_rnets_absent(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(setting, ObjectSet([SpatialObject(1, (u, v), 0.0)]))
        leaf = hierarchy.leaf_of_edge(u, v)
        chain_ids = {r.rnet_id for r in hierarchy.ancestors(leaf.rnet_id)}
        for rnet in hierarchy.rnets():
            if rnet.rnet_id not in chain_ids:
                assert ad.rnet_abstract(rnet.rnet_id) is None
                assert not ad.rnet_may_contain(rnet.rnet_id, ANY)

    def test_predicate_pruning(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(
            setting,
            ObjectSet([SpatialObject(1, (u, v), 0.0, {"type": "hotel"})]),
        )
        leaf = hierarchy.leaf_of_edge(u, v)
        assert ad.rnet_may_contain(leaf.rnet_id, Predicate.of(type="hotel"))
        assert not ad.rnet_may_contain(leaf.rnet_id, Predicate.of(type="fuel"))

    def test_insert_rejects_unknown_edge(self, setting):
        ad = make_directory(setting)
        with pytest.raises(DirectoryError):
            ad.insert(SpatialObject(1, (0, 99), 0.0))

    def test_insert_rejects_offset_beyond_edge(self, setting):
        net, _, _ = setting
        u, v = some_edge(net)
        too_far = net.edge_distance(u, v) * 2
        ad = make_directory(setting)
        with pytest.raises(DirectoryError):
            ad.insert(SpatialObject(1, (u, v), too_far))

    def test_bulk_build_from_placement(self, setting):
        net, _, _ = setting
        objects = place_uniform(net, 30, seed=5)
        ad = make_directory(setting, objects)
        assert ad.object_count == 30
        assert ad.size_bytes > 0
        assert ad.page_count > 0


class TestUpdates:
    def test_delete_detaches_everywhere(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(setting, ObjectSet([SpatialObject(1, (u, v), 0.0)]))
        removed = ad.delete(1)
        assert removed.object_id == 1
        assert ad.node_objects(u) == []
        assert ad.node_objects(v) == []
        leaf = hierarchy.leaf_of_edge(u, v)
        for rnet in hierarchy.ancestors(leaf.rnet_id):
            assert not ad.rnet_may_contain(rnet.rnet_id, ANY)

    def test_delete_keeps_siblings(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(
            setting,
            ObjectSet(
                [SpatialObject(1, (u, v), 0.0), SpatialObject(2, (u, v), 0.1)]
            ),
        )
        ad.delete(1)
        assert [o.object_id for o, _ in ad.node_objects(u)] == [2]
        leaf = hierarchy.leaf_of_edge(u, v)
        assert ad.rnet_may_contain(leaf.rnet_id, ANY)

    def test_delete_absent_raises(self, setting):
        ad = make_directory(setting)
        from repro.objects.model import ObjectError

        with pytest.raises(ObjectError):
            ad.delete(9)

    def test_update_attrs_changes_abstracts(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(
            setting,
            ObjectSet([SpatialObject(1, (u, v), 0.0, {"type": "hotel"})]),
        )
        leaf = hierarchy.leaf_of_edge(u, v)
        ad.update_attrs(1, {"type": "fuel"})
        assert not ad.rnet_may_contain(leaf.rnet_id, Predicate.of(type="hotel"))
        assert ad.rnet_may_contain(leaf.rnet_id, Predicate.of(type="fuel"))
        assert ad.get_object(1).attrs == {"type": "fuel"}

    def test_relocate_moves_object(self, setting):
        net, hierarchy, _ = setting
        edges = sorted((a, b) for a, b, _ in net.edges())
        (u, v), (x, y) = edges[0], edges[-1]
        ad = make_directory(setting, ObjectSet([SpatialObject(1, (u, v), 0.0)]))
        ad.relocate(1, (x, y), 0.0)
        assert ad.node_objects(u) == []
        assert [o.object_id for o, _ in ad.node_objects(x)] == [1]
        new_leaf = hierarchy.leaf_of_edge(x, y)
        assert ad.rnet_may_contain(new_leaf.rnet_id, ANY)

    def test_bloom_abstract_rebuild_on_delete(self, setting):
        """Fixed-size abstracts force the rebuild path on deletion."""
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        objects = ObjectSet(
            [
                SpatialObject(1, (u, v), 0.0, {"type": "hotel"}),
                SpatialObject(2, (u, v), 0.1, {"type": "fuel"}),
            ]
        )
        ad = make_directory(
            setting, objects, abstract_factory=bloom_abstract(num_bits=512)
        )
        ad.delete(1)
        leaf = hierarchy.leaf_of_edge(u, v)
        assert ad.rnet_may_contain(leaf.rnet_id, Predicate.of(type="fuel"))
        misses = sum(
            not ad.rnet_may_contain(leaf.rnet_id, Predicate.of(type=f"v{i}"))
            for i in range(30)
        )
        assert misses > 20  # the rebuilt bloom no longer contains "hotel"

    def test_duplicate_insert_raises(self, setting):
        net, _, _ = setting
        u, v = some_edge(net)
        ad = make_directory(setting, ObjectSet([SpatialObject(1, (u, v), 0.0)]))
        from repro.objects.model import ObjectError

        with pytest.raises(ObjectError):
            ad.insert(SpatialObject(1, (u, v), 0.2))


class TestMultipleDirectories:
    def test_two_directories_coexist(self, setting):
        net, hierarchy, pager = setting
        u, v = some_edge(net)
        hotels = AssociationDirectory(
            pager, net, hierarchy,
            ObjectSet([SpatialObject(1, (u, v), 0.0, {"type": "hotel"})]),
            name="hotels",
        )
        fuel = AssociationDirectory(
            pager, net, hierarchy,
            ObjectSet([SpatialObject(1, (u, v), 0.3, {"type": "fuel"})]),
            name="fuel",
        )
        assert hotels.node_objects(u)[0][0].attrs["type"] == "hotel"
        assert fuel.node_objects(u)[0][0].attrs["type"] == "fuel"
        hotels.delete(1)
        assert fuel.node_objects(u)  # unaffected


class TestBulkExport:
    def test_export_entries_roundtrip(self, setting):
        net, _, _ = setting
        objects = ObjectSet()
        for i in range(6):
            u, v = some_edge(net, i * 3)
            objects.add(
                SpatialObject(i, (u, v), net.edge_distance(u, v) / 3, {"t": "x"})
            )
        ad = make_directory(setting, objects)
        node_entries, abstracts = ad.export_entries()
        # Node entries match the charged per-node lookups, stored order kept.
        for node, entries in node_entries.items():
            assert entries == ad.node_objects(node)
        exported = {obj.object_id for e in node_entries.values() for obj, _ in e}
        assert exported == set(objects.ids())
        # Abstracts cover exactly the Rnets holding objects.
        for rnet_id, abstract in abstracts.items():
            assert ad.rnet_abstract(rnet_id) is abstract
            assert abstract.count > 0

    def test_free_pages_releases_storage(self, setting):
        net, _, pager = setting
        before = pager.page_count
        objects = ObjectSet()
        for i in range(10):
            u, v = some_edge(net, i)
            objects.add(SpatialObject(i, (u, v), 0.0))
        ad = make_directory(setting, objects)
        assert pager.page_count > before
        freed = ad.free_pages()
        assert freed > 0
        assert pager.page_count == before


class TestPruningKeys:
    """What ``ROAD`` reports as ``mask_rnets``: the chain Rnets whose
    pruning key an object write moved."""

    def test_keys_cover_the_chain_and_follow_the_writes(self, setting):
        net, hierarchy, _ = setting
        u, v = some_edge(net)
        ad = make_directory(setting)
        leaf = hierarchy.leaf_of_edge(u, v)
        chain = [rnet.rnet_id for rnet in hierarchy.ancestors(leaf.rnet_id)]
        empty = ad.pruning_keys((u, v))
        assert list(empty) == chain and set(empty.values()) == {None}
        ad.insert(SpatialObject(1, (u, v), 0.0, {"type": "hotel"}))
        one = ad.pruning_keys((u, v))
        assert all(one[r] != empty[r] for r in chain)  # the chain turned on
        ad.insert(SpatialObject(2, (u, v), 0.0, {"type": "hotel"}))
        assert ad.pruning_keys((u, v)) == one  # a repeated pair moves nothing
        ad.delete(2)
        ad.delete(1)
        assert ad.pruning_keys((u, v)) == empty

    def test_an_edge_the_network_lacks_has_no_chain(self, setting):
        assert make_directory(setting).pruning_keys((0, 99)) == {}

    def test_road_reports_the_moved_keys(self, medium_grid):
        road = ROAD.build(medium_grid, levels=2, fanout=4)
        road.attach_objects(ObjectSet())
        u, v = some_edge(medium_grid)
        hotel = SpatialObject(1, (u, v), 0.0, {"type": "hotel"})
        report = road.insert_object(hotel)
        assert report.mask_rnets == report.dirty_rnets  # every Rnet was empty
        twin = SpatialObject(2, (u, v), 0.0, {"type": "hotel"})
        assert road.insert_object(twin).mask_rnets == set()
        assert road.delete_object(2).mask_rnets == set()
        assert road.delete_object(1).mask_rnets == report.dirty_rnets
        with pytest.raises(DirectoryError):  # refused by the write itself
            road.insert_object(SpatialObject(3, (0, 99), 0.0))
