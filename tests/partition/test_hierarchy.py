"""Partition trees: structure, Definition 4 at every level, variants."""

import hashlib

import pytest

from repro.graph.generators import ca_like, chain_network, grid_network
from repro.partition.base import PartitionError, validate_partition
from repro.partition.grid import grid_partition_tree
from repro.partition.hierarchy import (
    build_partition_tree,
    geometric_bisector,
)
from repro.partition.object_based import build_object_based_tree, object_weights


class TestBuildPartitionTree:
    def test_root_covers_network(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=2, fanout=4)
        assert len(tree.edges) == medium_grid.num_edges
        assert tree.level == 0

    def test_every_split_satisfies_definition4(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=3, fanout=4)
        for node in tree.descendants():
            if node.children:
                validate_partition(
                    set(node.edges), [set(c.edges) for c in node.children]
                )

    def test_fanout_respected(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=2, fanout=4)
        assert len(tree.children) == 4
        for child in tree.children:
            assert len(child.children) in (0, 4) or len(child.children) <= 4

    def test_levels_depth(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=2, fanout=4)
        depths = {leaf.level for leaf in tree.leaves()}
        assert max(depths) == 2

    def test_leaves_partition_all_edges(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=3, fanout=4)
        leaf_edges = [set(leaf.edges) for leaf in tree.leaves()]
        union = set().union(*leaf_edges)
        assert union == set(tree.edges)
        assert sum(len(e) for e in leaf_edges) == len(union)

    def test_fanout_two(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=2, fanout=2)
        assert len(tree.children) == 2

    def test_non_power_of_two_fanout_rejected(self, medium_grid):
        with pytest.raises(PartitionError):
            build_partition_tree(medium_grid, levels=1, fanout=3)

    def test_zero_levels_rejected(self, medium_grid):
        with pytest.raises(PartitionError):
            build_partition_tree(medium_grid, levels=0)

    def test_tiny_network_stops_early(self):
        chain = chain_network(3)  # 2 edges cannot support fanout 4 deeply
        tree = build_partition_tree(chain, levels=3, fanout=4)
        for leaf in tree.leaves():
            assert len(leaf.edges) >= 1

    def test_geometric_bisector_variant(self, medium_grid):
        tree = build_partition_tree(
            medium_grid, levels=2, fanout=4, bisector=geometric_bisector()
        )
        for node in tree.descendants():
            if node.children:
                validate_partition(
                    set(node.edges), [set(c.edges) for c in node.children]
                )

    def test_kl_produces_fewer_cut_nodes_than_plain_geometric(self):
        from repro.partition.base import cut_nodes

        net = grid_network(12, 12, seed=5)
        kl_tree = build_partition_tree(net, levels=1, fanout=4)
        geo_tree = build_partition_tree(
            net, levels=1, fanout=4, bisector=geometric_bisector()
        )
        kl_cut = cut_nodes([set(c.edges) for c in kl_tree.children])
        geo_cut = cut_nodes([set(c.edges) for c in geo_tree.children])
        assert len(kl_cut) <= len(geo_cut)

    def test_pinned_tree_digest(self):
        """The mini CA tree is pinned: a partition change must be deliberate.

        Every decision of the bisector (geometric cut, each FM heap pop,
        refusal and rollback) shows up in this digest, and through it in
        the hierarchy, shortcuts and compiled snapshot built on the tree.
        """
        tree = build_partition_tree(ca_like(2100), levels=4)
        digest = hashlib.sha256()
        for node in tree.descendants():
            digest.update(
                repr((node.part_id, node.level, sorted(node.edges))).encode()
            )
        assert digest.hexdigest() == (
            "193417e5933bc642146c68404a875867de0a2647658bfa4a0fdafd0e5234e375"
        )

    def test_descendants_and_leaves(self, medium_grid):
        tree = build_partition_tree(medium_grid, levels=2, fanout=4)
        descendants = tree.descendants()
        assert tree in descendants
        leaves = tree.leaves()
        assert all(leaf.is_leaf for leaf in leaves)
        assert len(descendants) == 1 + 4 + sum(
            len(c.children) for c in tree.children
        )


class TestGridPartitioner:
    def test_grid_tree_valid(self, medium_grid):
        tree = grid_partition_tree(medium_grid, levels=2)
        for node in tree.descendants():
            if node.children:
                validate_partition(
                    set(node.edges), [set(c.edges) for c in node.children]
                )

    def test_grid_fanout_constraint(self, medium_grid):
        with pytest.raises(PartitionError):
            grid_partition_tree(medium_grid, levels=1, fanout=8)

    def test_grid_levels_constraint(self, medium_grid):
        with pytest.raises(PartitionError):
            grid_partition_tree(medium_grid, levels=0)


class TestObjectBased:
    def test_object_weights(self, small_grid):
        some_edge = next(iter(small_grid.edges()))[:2]
        weights = object_weights(small_grid, [some_edge, some_edge])
        assert weights[some_edge] == pytest.approx(1.0 + 2 * 4.0)
        assert all(w == 1.0 for e, w in weights.items() if e != some_edge)

    def test_object_weights_unknown_edge_rejected(self, small_grid):
        with pytest.raises(KeyError):
            object_weights(small_grid, [(998, 999)])

    def test_object_based_tree_valid(self, medium_grid):
        edges = sorted((u, v) for u, v, _ in medium_grid.edges())
        object_edges = edges[:5] * 3  # a hot corner of the network
        tree = build_object_based_tree(medium_grid, object_edges, levels=2)
        for node in tree.descendants():
            if node.children:
                validate_partition(
                    set(node.edges), [set(c.edges) for c in node.children]
                )

    def test_object_based_isolates_hot_region(self, medium_grid):
        """The hot edges' subtree should hold fewer edges than an even split."""
        edges = sorted((u, v) for u, v, _ in medium_grid.edges())
        hot = edges[:4]
        tree = build_object_based_tree(
            medium_grid, hot * 5, levels=1, emphasis=10.0
        )
        hot_parts = [c for c in tree.children if set(hot) & set(c.edges)]
        smallest_hot = min(len(c.edges) for c in hot_parts)
        even = medium_grid.num_edges / len(tree.children)
        assert smallest_hot <= even
