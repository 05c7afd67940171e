"""Rnet hierarchy: Definitions 1 & 4, border computation, mutation."""

import pytest

from repro.core.rnet import HierarchyError, RnetHierarchy
from repro.graph.generators import chain_network
from repro.graph.network import edge_key
from repro.partition.hierarchy import build_partition_tree


@pytest.fixture
def grid_hierarchy(medium_grid):
    tree = build_partition_tree(medium_grid, levels=2, fanout=4)
    return medium_grid, RnetHierarchy(medium_grid, tree)


@pytest.fixture
def chain_hierarchy():
    """Figure 8's setting: a 13-node chain, 3 Rnets x 2 sub-Rnets."""
    chain = chain_network(13)
    tree = build_partition_tree(chain, levels=2, fanout=2)
    return chain, RnetHierarchy(chain, tree)


class TestStructure:
    def test_root_covers_whole_network(self, grid_hierarchy):
        net, hier = grid_hierarchy
        assert len(hier.root.edges) == net.num_edges
        assert hier.root.level == 0
        assert hier.root.is_root

    def test_root_has_no_border(self, grid_hierarchy):
        _, hier = grid_hierarchy
        assert hier.root.border == set()

    def test_validates(self, grid_hierarchy):
        _, hier = grid_hierarchy
        hier.validate()

    def test_levels(self, grid_hierarchy):
        _, hier = grid_hierarchy
        assert hier.num_levels == 2
        assert len(hier.at_level(1)) == 4
        assert all(r.level == 1 for r in hier.at_level(1))

    def test_leaf_of_edge(self, grid_hierarchy):
        net, hier = grid_hierarchy
        for u, v, _ in list(net.edges())[:20]:
            leaf = hier.leaf_of_edge(u, v)
            assert leaf.is_leaf
            assert edge_key(u, v) in leaf.edges

    def test_leaf_of_missing_edge_raises(self, grid_hierarchy):
        _, hier = grid_hierarchy
        with pytest.raises(HierarchyError):
            hier.leaf_of_edge(0, 99)

    def test_ancestors_chain(self, grid_hierarchy):
        _, hier = grid_hierarchy
        leaf = hier.leaves()[0]
        chain = hier.ancestors(leaf.rnet_id)
        assert chain[0] is leaf
        assert chain[-1].is_root
        for child, parent in zip(chain, chain[1:]):
            assert child.parent == parent.rnet_id
            assert child.rnet_id in parent.children

    def test_unknown_rnet_raises(self, grid_hierarchy):
        _, hier = grid_hierarchy
        with pytest.raises(HierarchyError):
            hier.rnet(10_000)

    def test_border_nodes_have_external_edges(self, grid_hierarchy):
        net, hier = grid_hierarchy
        for rnet in hier.at_level(1):
            for node in rnet.border:
                external = [
                    nbr
                    for nbr, _ in net.neighbours(node)
                    if edge_key(node, nbr) not in rnet.edges
                ]
                assert external, f"border node {node} has no external edge"

    def test_interior_nodes_have_no_external_edges(self, grid_hierarchy):
        net, hier = grid_hierarchy
        for rnet in hier.at_level(1):
            for node in rnet.nodes - rnet.border:
                assert all(
                    edge_key(node, nbr) in rnet.edges
                    for nbr, _ in net.neighbours(node)
                )

    def test_chain_borders_match_figure8(self, chain_hierarchy):
        """On a 13-node chain split 3x2, borders are the cut points."""
        _, hier = chain_hierarchy
        level1_borders = set()
        for rnet in hier.at_level(1):
            level1_borders |= rnet.border
        # Chain cut into 2 at level 1 -> single shared cut node.
        assert len(level1_borders) == 1

    def test_rnets_containing_node(self, grid_hierarchy):
        _, hier = grid_hierarchy
        node = next(iter(hier.root.nodes))
        containing = hier.rnets_containing(node)
        assert containing[0].is_root
        assert all(node in r.nodes for r in containing)
        # Levels are non-decreasing (sorted top-down).
        levels = [r.level for r in containing]
        assert levels == sorted(levels)


class TestBorderRoots:
    def test_interior_node_has_no_roots(self, grid_hierarchy):
        _, hier = grid_hierarchy
        interior = None
        for leaf in hier.leaves():
            candidates = leaf.nodes - leaf.border
            if candidates:
                interior = next(iter(candidates))
                break
        assert interior is not None
        assert hier.border_roots(interior) == []

    def test_border_node_roots_are_bordered(self, grid_hierarchy):
        _, hier = grid_hierarchy
        border_node = next(iter(hier.at_level(1)[0].border))
        roots = hier.border_roots(border_node)
        assert roots
        for rnet in roots:
            assert border_node in rnet.border

    def test_roots_share_a_parent(self, grid_hierarchy):
        _, hier = grid_hierarchy
        for rnet in hier.at_level(1):
            for node in rnet.border:
                roots = hier.border_roots(node)
                parents = {r.parent for r in roots}
                assert len(parents) == 1

    def test_interior_rnet_is_the_deepest_holding_the_node_inside(
        self, grid_hierarchy
    ):
        _, hier = grid_hierarchy
        for node in hier.root.nodes:
            home = hier.interior_rnet(node)
            assert node in home.nodes and node not in home.border
            assert not any(
                node in hier.rnet(c).nodes and node not in hier.rnet(c).border
                for c in home.children
            )
            assert hier.border_roots(node) == sorted(
                (hier.rnet(c) for c in home.children if node in hier.rnet(c).nodes),
                key=lambda rnet: rnet.rnet_id,
            )

    def test_home_leaf_of_interior_node(self, grid_hierarchy):
        _, hier = grid_hierarchy
        for leaf in hier.leaves():
            for node in leaf.nodes - leaf.border:
                assert hier.home_leaf(node) is leaf

    def test_home_leaf_of_border_node_raises(self, grid_hierarchy):
        _, hier = grid_hierarchy
        border_node = next(iter(hier.at_level(1)[0].border))
        with pytest.raises(HierarchyError):
            hier.home_leaf(border_node)

    def test_is_border(self, grid_hierarchy):
        _, hier = grid_hierarchy
        rnet = hier.at_level(1)[0]
        border_node = next(iter(rnet.border))
        assert hier.is_border(border_node, rnet.rnet_id)
        interior = next(iter(rnet.nodes - rnet.border), None)
        if interior is not None:
            assert not hier.is_border(interior, rnet.rnet_id)


class TestMutation:
    def test_add_edge_updates_chain(self, grid_hierarchy):
        net, hier = grid_hierarchy
        net.add_edge(0, 55, 10.0)
        leaf = hier.add_edge(0, 55)
        assert edge_key(0, 55) in leaf.edges
        for rnet in hier.ancestors(leaf.rnet_id):
            assert edge_key(0, 55) in rnet.edges
        hier.validate()

    def test_add_then_remove_restores_validity(self, grid_hierarchy):
        net, hier = grid_hierarchy
        net.add_edge(0, 55, 10.0)
        hier.add_edge(0, 55)
        net.remove_edge(0, 55)
        hier.remove_edge(0, 55)
        hier.validate()

    def test_add_existing_edge_raises(self, grid_hierarchy):
        net, hier = grid_hierarchy
        u, v, _ = next(net.edges())
        with pytest.raises(HierarchyError):
            hier.add_edge(u, v)

    def test_add_unregistered_network_edge_required(self, grid_hierarchy):
        _, hier = grid_hierarchy
        with pytest.raises(HierarchyError):
            hier.add_edge(0, 55)  # edge not in network yet

    def test_remove_edge_still_in_network_raises(self, grid_hierarchy):
        net, hier = grid_hierarchy
        u, v, _ = next(net.edges())
        with pytest.raises(HierarchyError):
            hier.remove_edge(u, v)

    def test_cross_rnet_edge_promotes_border(self, grid_hierarchy):
        net, hier = grid_hierarchy
        # find two interior nodes in different leaves
        leaves = [l for l in hier.leaves() if l.nodes - l.border]
        a = next(iter(leaves[0].nodes - leaves[0].border))
        b = None
        for leaf in leaves[1:]:
            candidates = leaf.nodes - leaf.border - {a}
            for node in candidates:
                if not net.has_edge(a, node):
                    b = node
                    break
            if b is not None:
                break
        assert b is not None
        net.add_edge(a, b, 5.0)
        hier.add_edge(a, b)
        hier.validate()
        # One endpoint now borders the leaf that received the edge.
        assert any(
            b in r.border or a in r.border
            for r in hier.rnets_containing(a) + hier.rnets_containing(b)
            if not r.is_root
        )

    def test_stats_shape(self, grid_hierarchy):
        _, hier = grid_hierarchy
        stats = hier.stats()
        assert stats["levels"] == 2
        assert stats["leaves"] > 0
        assert stats["avg_border"] > 0
