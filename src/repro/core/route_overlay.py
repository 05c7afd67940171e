"""Route Overlay (Section 3.4, Figure 6).

The Route Overlay manages the physical network structure and the shortcuts:
"nodes are indexed by a B+-tree with unique node IDs as search keys.  Each
leaf entry of B+-tree points to a node, together with a shortcut tree".
It flattens the Rnet hierarchy into one plain indexed network, so a search
never switches between separate per-level network structures (the
shortcoming of HEPV/HiTi storage the paper calls out).

Storage layout follows the evaluation set-up: node records (shortcut trees)
are packed into CCAM-style connectivity-clustered pages [18] — breadth-
first order, so a network expansion's consecutive pops usually land on the
same page — while a slim B+-tree maps node id to its record page (the
"points to a node" directory).  Every lookup charges the directory descent
plus the record page(s), reproducing the paper's I/O profile.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.network import RoadNetwork
from repro.core.rnet import RnetHierarchy
from repro.core.shortcut_tree import ShortcutTree, build_shortcut_tree
from repro.core.shortcuts import ShortcutIndex
from repro.storage.bptree import BPlusTree
from repro.storage.codecs import INT_SIZE
from repro.storage.pager import PAGE_HEADER_SIZE, PAGE_SIZE, PageManager

_CAPACITY = PAGE_SIZE - PAGE_HEADER_SIZE


class RouteOverlayError(Exception):
    """Raised on lookups of unknown nodes."""


class _TreeBlock:
    """Record-page payload: shortcut trees of co-located nodes.

    A tree larger than one page spills into ``overflow`` continuation pages
    (charged on every read of that node), so occupancy accounting never
    under-reports a bulky border node.
    """

    __slots__ = ("trees", "nbytes", "overflow")

    def __init__(self) -> None:
        self.trees: Dict[int, ShortcutTree] = {}
        self.nbytes = 0
        self.overflow: List[int] = []


class RouteOverlay:
    """Disk-resident index: node id -> (node record, shortcut tree)."""

    def __init__(
        self,
        pager: PageManager,
        network: RoadNetwork,
        hierarchy: RnetHierarchy,
        shortcuts: ShortcutIndex,
        name: str = "route-overlay",
    ) -> None:
        self._pager = pager
        self.network = network
        self.hierarchy = hierarchy
        self.shortcuts = shortcuts
        self.name = name
        self._directory = BPlusTree(pager, name=f"{name}-dir")
        self._node_page: Dict[int, int] = {}
        self._build()
        pager.flush()

    # ------------------------------------------------------------------
    # Construction: CCAM-ordered packing
    # ------------------------------------------------------------------
    def _build(self) -> None:
        block = _TreeBlock()
        page = self._pager.allocate(self.name, block, 0)
        for node in self._bfs_order():
            tree = build_shortcut_tree(
                self.network, self.hierarchy, self.shortcuts, node
            )
            page, block = self._append_tree(page, block, node, tree)

    def _bfs_order(self) -> Iterable[int]:
        seen = set()
        order: List[int] = []
        for start in self.network.node_ids():
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            while queue:
                node = queue.popleft()
                order.append(node)
                for neighbour, _ in self.network.neighbours(node):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        queue.append(neighbour)
        return order

    def _append_tree(self, page, block: _TreeBlock, node: int, tree: ShortcutTree):
        """Pack one tree into the current page, spilling when needed."""
        size = tree.nbytes + INT_SIZE
        if size > _CAPACITY:
            # Oversized record: its own page plus continuation pages.
            if block.trees:
                self._pager.write(page, block.nbytes)
                block = _TreeBlock()
                page = self._pager.allocate(self.name, block, 0)
            block.trees[node] = tree
            block.nbytes = _CAPACITY
            remaining = size - _CAPACITY
            while remaining > 0:
                extra = self._pager.allocate(
                    self.name, None, min(remaining, _CAPACITY)
                )
                block.overflow.append(extra.page_id)
                remaining -= _CAPACITY
            self._register(node, page.page_id)
            self._pager.write(page, block.nbytes)
            block = _TreeBlock()
            page = self._pager.allocate(self.name, block, 0)
            return page, block
        if block.nbytes + size > _CAPACITY and block.trees:
            self._pager.write(page, block.nbytes)
            block = _TreeBlock()
            page = self._pager.allocate(self.name, block, 0)
        block.trees[node] = tree
        block.nbytes += size
        self._register(node, page.page_id)
        self._pager.write(page, block.nbytes)
        return page, block

    def _register(self, node: int, page_id: int) -> None:
        self._node_page[node] = page_id
        self._directory.insert(node, page_id, size=2 * INT_SIZE)

    # ------------------------------------------------------------------
    # Access (charged I/O)
    # ------------------------------------------------------------------
    def shortcut_tree(self, node: int) -> ShortcutTree:
        """Load a node's shortcut tree: directory descent + record page."""
        page_id = self._directory.get(node)
        if page_id is None:
            raise RouteOverlayError(f"node {node} not in Route Overlay")
        page = self._pager.read(page_id)
        block: _TreeBlock = page.payload
        for extra in block.overflow:
            self._pager.read(extra)  # continuation pages of bulky records
        return block.trees[node]

    def has_node(self, node: int) -> bool:
        """Membership check (charged like a directory search)."""
        return node in self._directory

    # ------------------------------------------------------------------
    # Bulk export (uncharged)
    # ------------------------------------------------------------------
    def iter_trees(self) -> Iterable[Tuple[int, ShortcutTree]]:
        """Yield every (node, shortcut tree) without charging I/O.

        A build-time bulk export for compile consumers such as
        :mod:`repro.core.frozen` — like :meth:`PageManager.iter_pages` it
        bypasses the buffer and must not be used in query processing.
        """
        for page in self._pager.iter_pages(self.name):
            block: Optional[_TreeBlock] = page.payload
            if block is None:
                continue  # overflow continuation pages carry no trees
            yield from block.trees.items()

    def stored_tree(self, node: int) -> ShortcutTree:
        """One node's stored shortcut tree, uncharged.

        The single-node counterpart of :meth:`iter_trees`: bypasses the
        directory descent and the buffer, for maintenance-time compile
        consumers (:meth:`repro.core.frozen.FrozenRoad.apply`) that read
        back the trees :meth:`refresh_nodes` just stored.  Must not be
        used in query processing — queries go through
        :meth:`shortcut_tree` and pay the simulated I/O.
        """
        page_id = self._node_page.get(node)
        if page_id is None:
            raise RouteOverlayError(f"node {node} not in Route Overlay")
        block: _TreeBlock = self._pager.peek(page_id).payload
        return block.trees[node]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh_node(self, node: int) -> None:
        """Rebuild one node's shortcut tree from the current indexes."""
        tree = build_shortcut_tree(
            self.network, self.hierarchy, self.shortcuts, node
        )
        old_page_id = self._node_page.get(node)
        if old_page_id is not None:
            page = self._pager.read(old_page_id)
            block: _TreeBlock = page.payload
            old_tree = block.trees.pop(node, None)
            if old_tree is not None and not block.overflow:
                block.nbytes -= old_tree.nbytes + INT_SIZE
                # Reuse the same page when the new tree still fits: keeps
                # the CCAM clustering intact across maintenance.
                if (
                    block.nbytes + tree.nbytes + INT_SIZE <= _CAPACITY
                    and tree.nbytes + INT_SIZE <= _CAPACITY
                ):
                    block.trees[node] = tree
                    block.nbytes += tree.nbytes + INT_SIZE
                    self._pager.write(page, block.nbytes)
                    return
                if block.trees:
                    self._pager.write(page, block.nbytes)
                else:
                    self._pager.free(old_page_id)  # emptied record page
            elif old_tree is not None:
                # Oversized record: free the continuation pages *and* the
                # emptied main page instead of leaving it allocated forever.
                for extra in block.overflow:
                    self._pager.free(extra)
                block.overflow.clear()
                block.trees.clear()
                block.nbytes = 0
                self._pager.free(old_page_id)
        self._place_elsewhere(node, tree)

    def _place_elsewhere(self, node: int, tree: ShortcutTree) -> None:
        size = tree.nbytes + INT_SIZE
        if size > _CAPACITY:
            block = _TreeBlock()
            page = self._pager.allocate(self.name, block, 0)
            block.trees[node] = tree
            block.nbytes = _CAPACITY
            remaining = size - _CAPACITY
            while remaining > 0:
                extra = self._pager.allocate(
                    self.name, None, min(remaining, _CAPACITY)
                )
                block.overflow.append(extra.page_id)
                remaining -= _CAPACITY
            self._pager.write(page, block.nbytes)
            self._register(node, page.page_id)
            return
        for page in self._pager.iter_pages(self.name):
            block = page.payload
            if block is None or block.overflow:
                continue
            if block.nbytes + size <= _CAPACITY:
                block.trees[node] = tree
                block.nbytes += size
                self._pager.write(page, block.nbytes)
                self._register(node, page.page_id)
                return
        block = _TreeBlock()
        page = self._pager.allocate(self.name, block, 0)
        block.trees[node] = tree
        block.nbytes = size
        self._pager.write(page, block.nbytes)
        self._register(node, page.page_id)

    def refresh_nodes(self, nodes: Iterable[int]) -> None:
        """Rebuild several nodes' shortcut trees."""
        for node in sorted(set(nodes)):
            self.refresh_node(node)

    def remove_node(self, node: int) -> None:
        """Drop a node's entry (network node deletion).

        Overflow pages of a bulky record are freed — and so is the main
        record page once it holds no tree, so ``page_count``/``size_bytes``
        shrink instead of accumulating empty pages.
        """
        page_id = self._node_page.pop(node, None)
        if page_id is not None:
            page = self._pager.read(page_id)
            block: _TreeBlock = page.payload
            tree = block.trees.pop(node, None)
            if tree is not None:
                if block.overflow:
                    for extra in block.overflow:
                        self._pager.free(extra)
                    block.overflow.clear()
                    block.nbytes = 0
                else:
                    block.nbytes -= tree.nbytes + INT_SIZE
            if block.trees:
                self._pager.write(page, block.nbytes)
            else:
                self._pager.free(page_id)  # emptied record page
        self._directory.delete(node)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        """Pages allocated to the Route Overlay (records + directory)."""
        records = sum(1 for _ in self._pager.iter_pages(self.name))
        return records + self._directory.page_count

    @property
    def size_bytes(self) -> int:
        """On-disk footprint."""
        return self.page_count * PAGE_SIZE

    @property
    def node_count(self) -> int:
        """Indexed nodes."""
        return len(self._directory)

    def locality(self) -> float:
        """Fraction of edges whose endpoints' trees share a page."""
        same = 0
        total = 0
        for u, v, _ in self.network.edges():
            total += 1
            if self._node_page.get(u) == self._node_page.get(v):
                same += 1
        return same / total if total else 1.0
