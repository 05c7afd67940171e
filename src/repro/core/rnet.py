"""Rnets and the Rnet hierarchy.

Definition 1: an Rnet ``R = (N_R, E_R, B_R)`` is a search subspace — a set
of edges, the nodes they touch, and the *border nodes*: nodes that also have
incident edges outside ``E_R`` ("the entrance and exit of an Rnet").

Section 3.3 structures the whole network as a hierarchy: the level-0 Rnet is
the network itself; each Rnet is partitioned (Definition 4) into ``p`` child
Rnets per level.  :class:`RnetHierarchy` materialises that structure from a
:class:`~repro.partition.hierarchy.PartitionNode` tree and maintains it
under network changes (Section 5.2.2: border promotion/demotion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.graph.network import EdgeKey, RoadNetwork, edge_key
from repro.partition.hierarchy import PartitionNode


class HierarchyError(Exception):
    """Raised when hierarchy invariants are violated."""


@dataclass
class Rnet:
    """One regional sub-network (Definition 1)."""

    rnet_id: int
    level: int
    edges: Set[EdgeKey]
    nodes: Set[int]
    border: Set[int]
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True for finest Rnets (no children)."""
        return not self.children

    @property
    def is_root(self) -> bool:
        """True for the level-0 Rnet (the whole network)."""
        return self.parent is None


class RnetHierarchy:
    """The Rnet hierarchy over a road network.

    Parameters
    ----------
    network:
        The underlying road network; the hierarchy keeps a reference (not a
        copy) and must be told about structural changes through its
        mutation methods.
    partition_tree:
        Edge-set tree from :mod:`repro.partition`; node/border sets are
        derived here per Definitions 1 and 4.
    """

    def __init__(self, network: RoadNetwork, partition_tree: PartitionNode) -> None:
        self.network = network
        self._rnets: Dict[int, Rnet] = {}
        self._leaf_of_edge: Dict[EdgeKey, int] = {}
        self._levels: Dict[int, List[int]] = {}
        self._build(partition_tree)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, tree: PartitionNode) -> None:
        for part in tree.descendants():
            edges = set(part.edges)
            nodes = _incident(edges)
            rnet = Rnet(part.part_id, part.level, edges, nodes, set())
            self._rnets[rnet.rnet_id] = rnet
            self._levels.setdefault(part.level, []).append(rnet.rnet_id)
            for child in part.children:
                rnet.children.append(child.part_id)
            if part.is_leaf:
                for edge in edges:
                    self._leaf_of_edge[edge] = rnet.rnet_id
        for rnet in self._rnets.values():
            for child_id in rnet.children:
                self._rnets[child_id].parent = rnet.rnet_id
        self._root_id = tree.part_id
        for rnet in self._rnets.values():
            rnet.border = self._compute_border(rnet)

    def _compute_border(self, rnet: Rnet) -> Set[int]:
        """B_R: nodes of R with at least one incident edge outside E_R."""
        border: Set[int] = set()
        for node in rnet.nodes:
            degree_in = 0
            for neighbour, _ in self.network.neighbours(node):
                if edge_key(node, neighbour) in rnet.edges:
                    degree_in += 1
            if degree_in < self.network.degree(node):
                border.add(node)
        return border

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def root(self) -> Rnet:
        """The level-0 Rnet (whole network, no border nodes)."""
        return self._rnets[self._root_id]

    @property
    def num_levels(self) -> int:
        """Deepest level ``l`` (root is level 0)."""
        return max(self._levels)

    def rnet(self, rnet_id: int) -> Rnet:
        """Rnet by id."""
        try:
            return self._rnets[rnet_id]
        except KeyError:
            raise HierarchyError(f"no Rnet {rnet_id}") from None

    def rnets(self) -> Iterator[Rnet]:
        """All Rnets, root first (ids are in creation order)."""
        return iter(self._rnets.values())

    def at_level(self, level: int) -> List[Rnet]:
        """All Rnets at a given level."""
        return [self._rnets[i] for i in self._levels.get(level, [])]

    def leaves(self) -> List[Rnet]:
        """All finest Rnets."""
        return [r for r in self._rnets.values() if r.is_leaf]

    def leaf_of_edge(self, u: int, v: int) -> Rnet:
        """The finest Rnet enclosing edge (u, v)."""
        key = edge_key(u, v)
        try:
            return self._rnets[self._leaf_of_edge[key]]
        except KeyError:
            raise HierarchyError(f"edge {key} not in any leaf Rnet") from None

    def ancestors(self, rnet_id: int) -> List[Rnet]:
        """Chain from the Rnet itself up to (and including) the root."""
        chain = [self.rnet(rnet_id)]
        while chain[-1].parent is not None:
            chain.append(self._rnets[chain[-1].parent])
        return chain

    def rnets_containing(self, node: int) -> List[Rnet]:
        """All Rnets whose node set contains ``node``, top-down."""
        found = []
        stack = [self.root]
        while stack:
            rnet = stack.pop()
            if node in rnet.nodes:
                found.append(rnet)
                stack.extend(self._rnets[c] for c in rnet.children)
        found.sort(key=lambda r: r.level)
        return found

    def interior_rnet(self, node: int) -> Rnet:
        """The deepest Rnet that contains ``node`` as an *interior* node.

        It and its ancestors are exactly the Rnets a search must descend
        to settle ``node``; an Rnet the node only borders is crossed on
        shortcuts that end at it.  A node on no edge gets the root.
        """
        current = self.root
        while True:
            holders = [
                self._rnets[c]
                for c in current.children
                if node in self._rnets[c].nodes
            ]
            if len(holders) != 1 or node in holders[0].border:
                return current
            current = holders[0]

    def border_roots(self, node: int) -> List[Rnet]:
        """Shortcut-tree roots for ``node`` (Section 3.4).

        The children of :meth:`interior_rnet` that contain ``node``: the
        highest-level Rnets for which the node is a border node.  Empty
        for non-border nodes (their tree is a single leaf of physical
        edges).
        """
        holders = [
            self._rnets[c]
            for c in self.interior_rnet(node).children
            if node in self._rnets[c].nodes
        ]
        return sorted(holders, key=lambda r: r.rnet_id)

    def home_leaf(self, node: int) -> Rnet:
        """The unique finest Rnet of a non-border (interior) node."""
        home = self.interior_rnet(node)
        if not home.is_leaf:
            raise HierarchyError(f"node {node} is a border node")
        return home

    def is_border(self, node: int, rnet_id: int) -> bool:
        """True if ``node`` is a border node of the given Rnet."""
        return node in self.rnet(rnet_id).border

    # ------------------------------------------------------------------
    # Mutation (Section 5.2.2 support; shortcuts are refreshed separately)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, leaf_rnet_id: Optional[int] = None) -> Rnet:
        """Register a new network edge with the hierarchy.

        The edge joins the leaf Rnet ``leaf_rnet_id`` (default: a leaf Rnet
        already containing one endpoint — Case 1/2 of Section 5.2.2); node
        and border sets along the ancestor chain are updated, including
        border promotion of an endpoint that lies in a different Rnet.

        Returns the leaf Rnet the edge joined.
        """
        key = edge_key(u, v)
        if key in self._leaf_of_edge:
            raise HierarchyError(f"edge {key} already registered")
        if not self.network.has_edge(u, v):
            raise HierarchyError(f"edge {key} missing from the network")
        if leaf_rnet_id is None:
            leaf = self._default_leaf_for(u, v)
        else:
            leaf = self.rnet(leaf_rnet_id)
            if not leaf.is_leaf:
                raise HierarchyError(f"Rnet {leaf_rnet_id} is not a leaf")
        self._leaf_of_edge[key] = leaf.rnet_id
        for rnet in self.ancestors(leaf.rnet_id):
            rnet.edges.add(key)
            rnet.nodes.add(u)
            rnet.nodes.add(v)
        self._refresh_borders_around(u, v)
        return leaf

    def remove_edge(self, u: int, v: int) -> Rnet:
        """Unregister an edge (already removed from the network).

        Nodes left with no incident edge in an Rnet are dropped from its
        node set; border sets are refreshed (border demotion, Fig 12(b)).
        Returns the leaf Rnet the edge belonged to.
        """
        key = edge_key(u, v)
        if key not in self._leaf_of_edge:
            raise HierarchyError(f"edge {key} not registered")
        if self.network.has_edge(u, v):
            raise HierarchyError(f"edge {key} still present in the network")
        leaf = self._rnets[self._leaf_of_edge.pop(key)]
        for rnet in self.ancestors(leaf.rnet_id):
            rnet.edges.discard(key)
            for node in (u, v):
                if not any(
                    edge_key(node, nbr) in rnet.edges
                    for nbr, _ in self.network.neighbours(node)
                ):
                    rnet.nodes.discard(node)
                    rnet.border.discard(node)
        self._refresh_borders_around(u, v)
        return leaf

    def _default_leaf_for(self, u: int, v: int) -> Rnet:
        """Pick the leaf Rnet a new edge joins: prefer one containing u."""
        for node in (u, v):
            for rnet in reversed(self.rnets_containing(node)):
                if rnet.is_leaf:
                    return rnet
        raise HierarchyError(
            f"neither endpoint of ({u}, {v}) is known to the hierarchy"
        )

    def _refresh_borders_around(self, u: int, v: int) -> None:
        """Recompute border membership of u and v in every Rnet holding them."""
        for node in (u, v):
            for rnet in self.rnets_containing(node):
                degree_in = sum(
                    1
                    for nbr, _ in self.network.neighbours(node)
                    if edge_key(node, nbr) in rnet.edges
                )
                if 0 < degree_in < self.network.degree(node):
                    rnet.border.add(node)
                else:
                    rnet.border.discard(node)

    # ------------------------------------------------------------------
    # Validation (used heavily in tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check Definitions 1 and 4 across the whole hierarchy."""
        root = self.root
        network_edges = {edge_key(u, v) for u, v, _ in self.network.edges()}
        if root.edges != network_edges:
            raise HierarchyError("root Rnet does not cover the network")
        if root.border:
            raise HierarchyError("root Rnet must have no border nodes")
        for rnet in self._rnets.values():
            if rnet.nodes != _incident(rnet.edges):
                raise HierarchyError(f"Rnet {rnet.rnet_id}: node set mismatch")
            expected_border = self._compute_border(rnet)
            if rnet.border != expected_border:
                raise HierarchyError(
                    f"Rnet {rnet.rnet_id}: border {sorted(rnet.border)} != "
                    f"expected {sorted(expected_border)}"
                )
            if rnet.children:
                child_edges: Set[EdgeKey] = set()
                total = 0
                for child_id in rnet.children:
                    child = self._rnets[child_id]
                    if child.parent != rnet.rnet_id:
                        raise HierarchyError("parent/child link broken")
                    if child.level != rnet.level + 1:
                        raise HierarchyError("child level must be parent + 1")
                    child_edges |= child.edges
                    total += len(child.edges)
                if child_edges != rnet.edges or total != len(rnet.edges):
                    raise HierarchyError(
                        f"Rnet {rnet.rnet_id}: children do not partition edges"
                    )
                # Definition 4 condition 3: a child's border nodes are shared
                # with the parent's border or with sibling node sets.
                for child_id in rnet.children:
                    child = self._rnets[child_id]
                    siblings: Set[int] = set()
                    for other_id in rnet.children:
                        if other_id != child_id:
                            siblings |= self._rnets[other_id].nodes
                    allowed = rnet.border | siblings
                    if not child.border <= allowed:
                        raise HierarchyError(
                            f"Rnet {child_id}: border escapes parent/siblings"
                        )

    def stats(self) -> Dict[str, float]:
        """Hierarchy shape summary for reports."""
        leaves = self.leaves()
        borders = [len(r.border) for r in self._rnets.values() if not r.is_root]
        return {
            "rnets": len(self._rnets),
            "levels": self.num_levels,
            "leaves": len(leaves),
            "avg_leaf_edges": (
                sum(len(r.edges) for r in leaves) / len(leaves) if leaves else 0.0
            ),
            "avg_border": sum(borders) / len(borders) if borders else 0.0,
            "max_border": max(borders) if borders else 0,
        }


def _incident(edges: Set[EdgeKey]) -> Set[int]:
    nodes: Set[int] = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    return nodes
