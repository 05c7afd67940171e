"""Per-node shortcut trees (Section 3.4, Figure 6).

Each Route Overlay entry carries a *shortcut tree* that organises, for one
node, the Rnets it borders (top level down) with the node's shortcuts per
Rnet, and — at the finest level — the node's physical edges.  A non-border
node's tree "has only one leaf node containing edges to its neighbouring
nodes" — that leaf is the node's adjacency in the network, so the tree
refers to it instead of keeping a copy.

The tree roots are the highest-level Rnets for which the node is a border
node: the children of the deepest Rnet containing the node as an interior
node (see :meth:`repro.core.rnet.RnetHierarchy.border_roots`).  Parent Rnets
sit immediately above their children, matching the N-ary layout of Fig 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.graph.network import RoadNetwork
from repro.core.rnet import Rnet, RnetHierarchy
from repro.core.shortcuts import Shortcut, ShortcutIndex
from repro.storage.codecs import EDGE_RECORD_SIZE, INT_SIZE, shortcut_size


@dataclass(slots=True)
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


#: The ``roots`` of every non-border node's tree.
_NO_ROOTS: Tuple[ShortcutTreeEntry, ...] = ()


class ShortcutTree:
    """A node's full shortcut tree.

    What is stored and what is derived:

    * A border node's tree stores one root per highest-level bordered Rnet;
      its physical edges sit in the finest entries, split by leaf Rnet.
    * A non-border node's tree stores no edges: its single leaf *is* the
      node's adjacency, so :attr:`local_edges` reads it off the network on
      demand, and ``roots`` is one shared empty tuple.
    * ``nbytes`` is the record's size when the tree was built (a leaf is
      sized from :meth:`RoadNetwork.degree`).  The Route Overlay's page
      accounting subtracts exactly what it added, even when maintenance
      changed the node's degree before refreshing the tree.
    """

    __slots__ = ("node_id", "roots", "nbytes", "_network")

    def __init__(
        self,
        node_id: int,
        network: RoadNetwork,
        roots: Sequence[ShortcutTreeEntry] = _NO_ROOTS,
    ) -> None:
        self.node_id = node_id
        self.roots = roots
        self._network = network
        if roots:
            self.nbytes = INT_SIZE + sum(root.nbytes for root in roots)
        else:
            self.nbytes = INT_SIZE + network.degree(node_id) * EDGE_RECORD_SIZE

    @property
    def is_border(self) -> bool:
        """True if the node borders at least one Rnet."""
        return bool(self.roots)

    @property
    def local_edges(self) -> Tuple[Tuple[int, float], ...]:
        """A non-border node's single leaf: its adjacency (empty if border)."""
        if self.roots:
            return ()
        return tuple(self._network.neighbours(self.node_id))

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
        return ShortcutTree(node, network)
    held = hierarchy.containing_ids(node)
    entries = [
        _build_entry(hierarchy, shortcuts, rnet, node, held)
        for rnet in roots
    ]
    return ShortcutTree(node, network, entries)


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
