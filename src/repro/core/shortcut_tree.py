"""Per-node shortcut trees (Section 3.4, Figure 6).

Each Route Overlay entry carries a *shortcut tree* that organises, for one
node, the Rnets it borders (top level down) with the node's shortcuts per
Rnet, and — at the finest level — the node's physical edges.  A non-border
node's tree "has only one leaf node containing edges to its neighbouring
nodes".

The tree roots are the highest-level Rnets for which the node is a border
node: the children of the deepest Rnet containing the node as an interior
node (see :meth:`repro.core.rnet.RnetHierarchy.border_roots`).  Parent Rnets
sit immediately above their children, matching the N-ary layout of Fig 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.graph.network import RoadNetwork
from repro.core.rnet import Rnet, RnetHierarchy
from repro.core.shortcuts import Shortcut, ShortcutIndex
from repro.storage.codecs import EDGE_RECORD_SIZE, INT_SIZE, shortcut_size


@dataclass
class ShortcutTreeEntry:
    """One Rnet the node borders: its shortcuts and children (or edges)."""

    rnet_id: int
    level: int
    shortcuts: List[Shortcut] = field(default_factory=list)
    children: List["ShortcutTreeEntry"] = field(default_factory=list)
    #: physical edges of the node inside this Rnet (finest Rnets only)
    edges: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True for finest-Rnet entries (the 'base' rows of Fig 6)."""
        return not self.children

    @property
    def nbytes(self) -> int:
        size = 2 * INT_SIZE  # rnet id + level
        size += sum(shortcut_size(len(s.via)) for s in self.shortcuts)
        size += len(self.edges) * EDGE_RECORD_SIZE
        for child in self.children:
            size += child.nbytes
        return size


@dataclass
class ShortcutTree:
    """A node's full shortcut tree.

    ``roots`` is empty for non-border nodes, whose single leaf is
    ``local_edges`` (the complete adjacency); border nodes get one root per
    highest-level bordered Rnet and ``local_edges`` stays empty.
    """

    node_id: int
    roots: List[ShortcutTreeEntry] = field(default_factory=list)
    local_edges: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def is_border(self) -> bool:
        """True if the node borders at least one Rnet."""
        return bool(self.roots)

    @property
    def nbytes(self) -> int:
        size = INT_SIZE + len(self.local_edges) * EDGE_RECORD_SIZE
        for root in self.roots:
            size += root.nbytes
        return size

    def all_edges(self) -> List[Tuple[int, float]]:
        """The node's complete adjacency, whichever shape the tree has."""
        if not self.roots:
            return list(self.local_edges)
        out: List[Tuple[int, float]] = []
        stack = list(self.roots)
        while stack:
            entry = stack.pop()
            out.extend(entry.edges)
            stack.extend(entry.children)
        return out


def build_shortcut_tree(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    node: int,
) -> ShortcutTree:
    """Construct the shortcut tree of one node from the current indexes."""
    roots = hierarchy.border_roots(node)
    if not roots:
        return ShortcutTree(node, local_edges=list(network.neighbours(node)))
    held = hierarchy.containing_ids(node)
    entries = [
        _build_entry(hierarchy, shortcuts, rnet, node, held)
        for rnet in roots
    ]
    return ShortcutTree(node, roots=entries)


def _build_entry(
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    rnet: Rnet,
    node: int,
    held: Set[int],
) -> ShortcutTreeEntry:
    entry = ShortcutTreeEntry(
        rnet.rnet_id,
        rnet.level,
        shortcuts=shortcuts.from_node(node, rnet.rnet_id),
    )
    if rnet.is_leaf:
        entry.edges = hierarchy.leaf_neighbours(node, rnet.rnet_id)
        return entry
    for child_id in rnet.children:
        if child_id in held:
            entry.children.append(
                _build_entry(hierarchy, shortcuts, hierarchy.rnet(child_id), node, held)
            )
    return entry
