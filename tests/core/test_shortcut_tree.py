"""Shortcut trees: Figure 6 structure per node."""

import pytest

from repro.core.rnet import RnetHierarchy
from repro.core.shortcut_tree import build_shortcut_tree
from repro.core.shortcuts import build_shortcuts
from repro.graph.network import edge_key
from repro.partition.hierarchy import build_partition_tree


@pytest.fixture
def setting(medium_grid):
    tree = build_partition_tree(medium_grid, levels=2, fanout=4)
    hierarchy = RnetHierarchy(medium_grid, tree)
    shortcuts = build_shortcuts(medium_grid, hierarchy)
    return medium_grid, hierarchy, shortcuts


def find_interior_node(hierarchy):
    for leaf in hierarchy.leaves():
        interior = leaf.nodes - leaf.border
        if interior:
            return next(iter(sorted(interior)))
    raise AssertionError("no interior node found")


class TestNonBorderTree:
    def test_single_leaf_with_all_edges(self, setting):
        net, hier, shortcuts = setting
        node = find_interior_node(hier)
        tree = build_shortcut_tree(net, hier, shortcuts, node)
        assert not tree.is_border
        assert not tree.roots
        assert sorted(tree.local_edges) == sorted(net.neighbours(node))

    def test_all_edges_helper(self, setting):
        net, hier, shortcuts = setting
        node = find_interior_node(hier)
        tree = build_shortcut_tree(net, hier, shortcuts, node)
        assert sorted(tree.all_edges()) == sorted(net.neighbours(node))


class TestBorderTree:
    def _border_tree(self, setting):
        net, hier, shortcuts = setting
        node = next(iter(sorted(hier.at_level(1)[0].border)))
        return net, hier, shortcuts, node, build_shortcut_tree(
            net, hier, shortcuts, node
        )

    def test_roots_cover_bordered_rnets(self, setting):
        net, hier, shortcuts, node, tree = self._border_tree(setting)
        assert tree.is_border
        for root in tree.roots:
            assert node in hier.rnet(root.rnet_id).border

    def test_parent_above_children(self, setting):
        net, hier, shortcuts, node, tree = self._border_tree(setting)
        stack = list(tree.roots)
        while stack:
            entry = stack.pop()
            for child in entry.children:
                assert child.level == entry.level + 1
                assert hier.rnet(child.rnet_id).parent == entry.rnet_id
                stack.append(child)

    def test_shortcuts_belong_to_their_entry(self, setting):
        net, hier, shortcuts, node, tree = self._border_tree(setting)
        stack = list(tree.roots)
        while stack:
            entry = stack.pop()
            for s in entry.shortcuts:
                assert s.source == node
                assert s.rnet_id == entry.rnet_id
            stack.extend(entry.children)

    def test_leaf_entries_hold_rnet_restricted_edges(self, setting):
        net, hier, shortcuts, node, tree = self._border_tree(setting)
        stack = list(tree.roots)
        while stack:
            entry = stack.pop()
            if entry.is_leaf:
                rnet = hier.rnet(entry.rnet_id)
                expected = sorted(
                    (nbr, d)
                    for nbr, d in net.neighbours(node)
                    if edge_key(node, nbr) in rnet.edges
                )
                assert sorted(entry.edges) == expected
            else:
                assert entry.edges == []
                stack.extend(entry.children)

    def test_all_edges_reassembles_full_adjacency(self, setting):
        net, hier, shortcuts, node, tree = self._border_tree(setting)
        assert sorted(tree.all_edges()) == sorted(net.neighbours(node))

    def test_every_border_node_has_some_shortcut(self, setting):
        """Each border node can leave at least one of its bordered Rnets."""
        net, hier, shortcuts = setting
        for rnet in hier.at_level(1):
            for node in sorted(rnet.border):
                tree = build_shortcut_tree(net, hier, shortcuts, node)
                total = 0
                stack = list(tree.roots)
                while stack:
                    entry = stack.pop()
                    total += len(entry.shortcuts)
                    stack.extend(entry.children)
                assert total > 0

    def test_nbytes_positive_and_additive(self, setting):
        net, hier, shortcuts, node, tree = self._border_tree(setting)
        assert tree.nbytes > 0
        assert tree.nbytes >= sum(root.nbytes for root in tree.roots)
