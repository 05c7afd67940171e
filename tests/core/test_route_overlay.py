"""Route Overlay storage layout: clustering, overflow, maintenance."""

import pytest

from repro.core.rnet import RnetHierarchy
from repro.core.route_overlay import RouteOverlay, RouteOverlayError
from repro.core.shortcuts import build_shortcuts
from repro.graph.generators import grid_network
from repro.partition.hierarchy import build_partition_tree
from repro.storage.pager import PAGE_HEADER_SIZE, PAGE_SIZE, PageManager


@pytest.fixture
def overlay_setting(medium_grid):
    tree = build_partition_tree(medium_grid, levels=2, fanout=4)
    hierarchy = RnetHierarchy(medium_grid, tree)
    shortcuts = build_shortcuts(medium_grid, hierarchy)
    pager = PageManager(buffer_pages=16)
    overlay = RouteOverlay(pager, medium_grid, hierarchy, shortcuts)
    return medium_grid, hierarchy, shortcuts, pager, overlay


class TestLayout:
    def test_every_node_indexed(self, overlay_setting):
        net, _, _, _, overlay = overlay_setting
        assert overlay.node_count == net.num_nodes
        for node in net.node_ids():
            assert overlay.has_node(node)

    def test_unknown_node_raises(self, overlay_setting):
        _, _, _, _, overlay = overlay_setting
        with pytest.raises(RouteOverlayError):
            overlay.shortcut_tree(99_999)

    def test_trees_match_freshly_built(self, overlay_setting):
        from repro.core.shortcut_tree import build_shortcut_tree

        net, hierarchy, shortcuts, _, overlay = overlay_setting
        for node in list(net.node_ids())[:15]:
            stored = overlay.shortcut_tree(node)
            fresh = build_shortcut_tree(net, hierarchy, shortcuts, node)
            assert sorted(stored.all_edges()) == sorted(fresh.all_edges())
            assert len(stored.roots) == len(fresh.roots)

    def test_clustering_gives_locality(self, overlay_setting):
        _, _, _, _, overlay = overlay_setting
        # BFS packing should co-locate a decent share of neighbours.
        assert overlay.locality() > 0.3

    def test_pages_respect_capacity(self, overlay_setting):
        _, _, _, pager, overlay = overlay_setting
        for page in pager.iter_pages(overlay.name):
            assert page.nbytes <= PAGE_SIZE - PAGE_HEADER_SIZE

    def test_expansion_io_beats_random_access(self, overlay_setting):
        """Reading a BFS neighbourhood costs fewer pages than node count."""
        net, _, _, pager, overlay = overlay_setting
        pager.drop_cache()
        pager.reset_stats()
        frontier, seen = [0], {0}
        for _ in range(30):
            node = frontier.pop(0)
            for neighbour, _ in overlay.shortcut_tree(node).all_edges():
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        assert pager.stats.reads < 30

    def test_size_accounts_directory_and_records(self, overlay_setting):
        _, _, _, _, overlay = overlay_setting
        assert overlay.size_bytes == overlay.page_count * PAGE_SIZE
        assert overlay.page_count > 1


class TestMaintenance:
    def test_refresh_keeps_tree_loadable(self, overlay_setting):
        net, _, _, _, overlay = overlay_setting
        node = next(iter(net.node_ids()))
        before = sorted(overlay.shortcut_tree(node).all_edges())
        overlay.refresh_node(node)
        after = sorted(overlay.shortcut_tree(node).all_edges())
        assert before == after

    def test_refresh_after_weight_change(self, overlay_setting):
        net, _, _, _, overlay = overlay_setting
        u, v, d = next(net.edges())
        net.update_edge(u, v, d * 3)
        overlay.refresh_nodes([u, v])
        assert dict(overlay.shortcut_tree(u).all_edges())[v] == pytest.approx(d * 3)

    def test_remove_node(self, overlay_setting):
        net, _, _, _, overlay = overlay_setting
        node = next(iter(net.node_ids()))
        overlay.remove_node(node)
        assert not overlay.has_node(node)
        assert overlay.node_count == net.num_nodes - 1

    def test_many_refreshes_preserve_page_budget(self, overlay_setting):
        net, _, _, pager, overlay = overlay_setting
        for node in list(net.node_ids())[:40]:
            overlay.refresh_node(node)
        for page in pager.iter_pages(overlay.name):
            assert page.nbytes <= PAGE_SIZE - PAGE_HEADER_SIZE
        for node in list(net.node_ids())[:40]:
            overlay.shortcut_tree(node)  # still loadable


class TestOverflowChains:
    def test_oversized_tree_spills_to_chain(self):
        """A node bordering many Rnets with many shortcuts overflows a page."""
        # A dense star-ish network partitioned deep creates fat trees; easier
        # to force: tiny page budget via a big tree by deep hierarchy.
        net = grid_network(14, 14, seed=3)
        tree = build_partition_tree(net, levels=4, fanout=4)
        hierarchy = RnetHierarchy(net, tree)
        shortcuts = build_shortcuts(net, hierarchy, reduce=False)
        pager = PageManager(buffer_pages=16)
        overlay = RouteOverlay(pager, net, hierarchy, shortcuts)
        # Regardless of whether any tree overflowed, every tree must load.
        for node in net.node_ids():
            overlay.shortcut_tree(node)
        # And if a chain exists, reading its node charges the extra pages.
        fat_nodes = [
            n
            for n in net.node_ids()
            if pager.read(overlay._node_page[n]).payload.overflow
        ]
        if fat_nodes:
            pager.drop_cache()
            pager.reset_stats()
            overlay.shortcut_tree(fat_nodes[0])
            assert pager.stats.reads >= 2


class TestPageReclamation:
    def test_remove_all_nodes_frees_record_pages(self, overlay_setting):
        """Regression: emptied record pages must be freed, not leaked."""
        net, _, _, pager, overlay = overlay_setting
        for node in sorted(net.node_ids()):
            overlay.remove_node(node)
        assert overlay.node_count == 0
        # Every record page is gone; only the (empty) directory remains.
        assert sum(1 for _ in pager.iter_pages(overlay.name)) == 0

    def test_removing_a_pages_residents_frees_it(self, overlay_setting):
        net, _, _, pager, overlay = overlay_setting
        # Remove every node co-located on one record page: it must be freed.
        page_id = overlay._node_page[0]
        residents = [n for n, p in overlay._node_page.items() if p == page_id]
        before = pager.page_count
        for node in residents:
            overlay.remove_node(node)
        assert pager.page_count < before
        assert all(p.page_id != page_id for p in pager.iter_pages(overlay.name))

    @staticmethod
    def _star_overlay():
        """A 320-spoke star: the hub's record overflows one page for sure."""
        import random

        from repro.graph.network import RoadNetwork

        rnd = random.Random(1)
        net = RoadNetwork()
        for i in range(320):
            net.add_node(i, rnd.uniform(0, 100), rnd.uniform(0, 100))
        for i in range(1, 320):
            net.add_edge(0, i, rnd.uniform(1.0, 5.0))
        tree = build_partition_tree(net, levels=2, fanout=4)
        hierarchy = RnetHierarchy(net, tree)
        shortcuts = build_shortcuts(net, hierarchy)
        pager = PageManager(buffer_pages=16)
        overlay = RouteOverlay(pager, net, hierarchy, shortcuts)
        fat_nodes = [
            n
            for n in net.node_ids()
            if pager.read(overlay._node_page[n]).payload.overflow
        ]
        assert fat_nodes, "star hub must overflow a record page"
        return pager, overlay, fat_nodes[0]

    def test_remove_oversized_node_frees_chain_and_page(self):
        """An oversized record frees its overflow chain *and* main page."""
        pager, overlay, node = self._star_overlay()
        chain = 1 + len(pager.read(overlay._node_page[node]).payload.overflow)
        before = pager.page_count
        overlay.remove_node(node)
        assert pager.page_count <= before - chain

    def test_refresh_oversized_node_reclaims_pages(self):
        """Refreshing a bulky record must not leave its old pages behind."""
        pager, overlay, node = self._star_overlay()
        baseline = pager.page_count
        for _ in range(5):
            overlay.refresh_node(node)
        # Stable: same-sized rebuilds reuse/free pages instead of growing.
        assert pager.page_count <= baseline + 1
        overlay.shortcut_tree(node)  # still loadable


class TestBulkExport:
    def test_iter_trees_complete_and_uncharged(self, overlay_setting):
        net, _, _, pager, overlay = overlay_setting
        pager.drop_cache()
        pager.reset_stats()
        trees = dict(overlay.iter_trees())
        assert pager.stats.reads == 0  # bulk export bypasses the buffer
        assert sorted(trees) == sorted(net.node_ids())
        for node, tree in trees.items():
            assert tree.node_id == node

    def test_stored_tree_single_node_uncharged(self, overlay_setting):
        net, _, _, pager, overlay = overlay_setting
        node = next(iter(net.node_ids()))
        charged = overlay.shortcut_tree(node)
        pager.drop_cache()
        pager.reset_stats()
        assert overlay.stored_tree(node) is charged  # same stored object
        assert pager.stats.reads == 0  # bypasses directory and buffer
        from repro.core.route_overlay import RouteOverlayError
        import pytest
        with pytest.raises(RouteOverlayError):
            overlay.stored_tree(10_000)


class TestRecordAccounting:
    def test_page_bytes_match_stored_trees_after_structural_changes(
        self, medium_grid
    ):
        """A record keeps the size it was written with: maintenance changes
        a node's degree *before* refreshing its tree, and the refresh must
        subtract the old record's bytes, not the new adjacency's."""
        from repro import ROAD
        from repro.storage.codecs import INT_SIZE

        road = ROAD.build(medium_grid, levels=2, fanout=4)
        interior = [
            n for n, t in road.overlay.iter_trees() if not t.is_border
        ]
        changed = 0
        for node in interior:
            for neighbour, _ in list(medium_grid.neighbours(node)):
                if not road.overlay.stored_tree(neighbour).is_border:
                    road.remove_edge(node, neighbour)
                    changed += 1
                    break
            if changed == 6:
                break
        assert changed == 6
        for page in road.pager.iter_pages(road.overlay.name):
            block = page.payload
            if block is None or block.overflow:
                continue
            assert block.nbytes == sum(
                tree.nbytes + INT_SIZE for tree in block.trees.values()
            )
