"""Rnets and the Rnet hierarchy.

Definition 1: an Rnet ``R = (N_R, E_R, B_R)`` is a search subspace — a set
of edges, the nodes they touch, and the *border nodes*: nodes that also have
incident edges outside ``E_R`` ("the entrance and exit of an Rnet").

Section 3.3 structures the whole network as a hierarchy: the level-0 Rnet is
the network itself; each Rnet is partitioned (Definition 4) into ``p`` child
Rnets per level.  :class:`RnetHierarchy` materialises that structure from a
:class:`~repro.partition.hierarchy.PartitionNode` tree and maintains it
under network changes (Section 5.2.2: border promotion/demotion).

Storage.  The network is stored once, not once per level.  The hierarchy
keeps the tree (parent and children links), every Rnet's border set, one
edge -> leaf map and, per Rnet, its ancestor chain from the root down.
``E_R`` and ``N_R`` are never stored, for leaves neither: an edge is in
``R`` iff ``R`` is on the chain of the edge's leaf, and a node is in ``R``
iff one of its incident edges is.  So every structure is O(|E| + |N|)
however deep the tree, where per-level sets would hold the network
``levels + 1`` times over — the copy per level that Section 3.4 holds
against HEPV/HiTi and the Route Overlay avoids.

Cost.  Every per-node query (:meth:`RnetHierarchy.rnets_containing`,
:meth:`~RnetHierarchy.interior_rnet`, :meth:`~RnetHierarchy.border_roots`,
border refreshes on :meth:`~RnetHierarchy.add_edge` /
:meth:`~RnetHierarchy.remove_edge`) reads the chains of the node's
incident edges: O(degree · levels).  The border sets of every level come
from one such pass over the nodes.  :attr:`Rnet.edges` and
:attr:`Rnet.nodes` are computed when asked, O(|E|) each; only validation,
:func:`~repro.core.serialize.save_road` and tests read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.network import EdgeKey, RoadNetwork, edge_key
from repro.partition.hierarchy import PartitionNode

#: Rnet ids from the root down to (and including) one Rnet.
Chain = Tuple[int, ...]


class HierarchyError(Exception):
    """Raised when hierarchy invariants are violated."""


@dataclass
class Rnet:
    """One regional sub-network (Definition 1).

    Only ``B_R`` is stored; ``E_R`` (:attr:`edges`) and ``N_R``
    (:attr:`nodes`) are derived from the hierarchy's edge -> leaf map.
    """

    rnet_id: int
    level: int
    border: Set[int]
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)
    hierarchy: Optional["RnetHierarchy"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_leaf(self) -> bool:
        """True for finest Rnets (no children)."""
        return not self.children

    @property
    def is_root(self) -> bool:
        """True for the level-0 Rnet (the whole network)."""
        return self.parent is None

    @property
    def edges(self) -> FrozenSet[EdgeKey]:
        """E_R, derived: the edges whose leaf lies under this Rnet."""
        assert self.hierarchy is not None
        return self.hierarchy.edges_of(self.rnet_id)

    @property
    def nodes(self) -> FrozenSet[int]:
        """N_R, derived: the endpoints of :attr:`edges`."""
        return _incident(self.edges)


class RnetHierarchy:
    """The Rnet hierarchy over a road network.

    Parameters
    ----------
    network:
        The underlying road network; the hierarchy keeps a reference (not a
        copy) and must be told about structural changes through its
        mutation methods.
    partition_tree:
        Edge-set tree from :mod:`repro.partition`; only its leaves' edge
        sets are read.  Node and border sets follow per Definitions 1
        and 4.
    """

    def __init__(self, network: RoadNetwork, partition_tree: PartitionNode) -> None:
        self.network = network
        self._rnets: Dict[int, Rnet] = {}
        self._leaf_of_edge: Dict[EdgeKey, int] = {}
        self._levels: Dict[int, List[int]] = {}
        #: Per Rnet, its chain from the root down (``chain[level] == id``).
        self._chain: Dict[int, Chain] = {}
        #: Per Rnet, its place in :meth:`rnets_containing`'s order.
        self._rank: Dict[int, int] = {}
        self._build(partition_tree)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, tree: PartitionNode) -> None:
        for part in tree.descendants():  # parents before children
            rnet = Rnet(part.part_id, part.level, set(), hierarchy=self)
            rnet.children = [child.part_id for child in part.children]
            self._rnets[rnet.rnet_id] = rnet
            self._levels.setdefault(part.level, []).append(rnet.rnet_id)
            if part.is_leaf:
                for edge in part.edges:
                    self._leaf_of_edge[edge] = rnet.rnet_id
        self._root_id = tree.part_id
        self._chain[self._root_id] = (self._root_id,)
        for rnet in self._rnets.values():
            for child_id in rnet.children:
                self._rnets[child_id].parent = rnet.rnet_id
                self._chain[child_id] = self._chain[rnet.rnet_id] + (child_id,)
        # rnets_containing lists Rnets top-down and, within a level, in the
        # order a depth-first walk popping children off a stack meets them;
        # new edges pick their leaf from that order (_default_leaf_for).
        order: List[int] = []
        stack = [self._root_id]
        while stack:
            rnet_id = stack.pop()
            order.append(rnet_id)
            stack.extend(self._rnets[rnet_id].children)
        order.sort(key=lambda rnet_id: self._rnets[rnet_id].level)
        self._rank = {rnet_id: rank for rank, rnet_id in enumerate(order)}
        for node in self.network.node_ids():
            for rnet_id in self._bordered(self._incident_chains(node)):
                self._rnets[rnet_id].border.add(node)

    def _incident_chains(self, node: int) -> Set[Chain]:
        """The distinct chains of ``node``'s incident edges.

        An edge the hierarchy does not know (yet) has the empty chain: it
        lies in no Rnet.
        """
        if not self.network.has_node(node):
            return set()
        leaf_of = self._leaf_of_edge.get
        chain = self._chain.get
        return {
            chain(leaf_of(edge_key(node, nbr), -1), ())
            for nbr, _ in self.network.neighbours(node)
        }

    @staticmethod
    def _bordered(chains: Set[Chain]) -> Set[int]:
        """Ids of the Rnets a node with these incident chains borders.

        A node borders ``R`` when one incident edge is in ``R`` and another
        is not.  Chains of unequal length (leaves at different depths of an
        unbalanced tree) count: a node on an edge of a shallow leaf borders
        every deeper Rnet its other edges reach.
        """
        if len(chains) < 2:
            return set()  # every incident edge lies in the same Rnets
        held = set().union(*chains)
        return {
            rnet_id
            for rnet_id in held
            if not all(rnet_id in chain for chain in chains)
        }

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
        if rnet_id not in self._chain:
            raise HierarchyError(f"no Rnet {rnet_id}")
        return [self._rnets[i] for i in reversed(self._chain[rnet_id])]

    def leaf_neighbours(self, node: int, leaf_id: int) -> List[Tuple[int, float]]:
        """``(neighbour, distance)`` of ``node``'s edges in leaf ``leaf_id``."""
        leaf_of = self._leaf_of_edge.get
        return [
            (neighbour, distance)
            for neighbour, distance in self.network.neighbours(node)
            if leaf_of(edge_key(node, neighbour)) == leaf_id
        ]

    def edges_by_leaf(self) -> Dict[int, List[EdgeKey]]:
        """Every leaf's edges, grouped in one pass over the map."""
        grouped: Dict[int, List[EdgeKey]] = {r.rnet_id: [] for r in self.leaves()}
        for key, leaf_id in self._leaf_of_edge.items():
            grouped[leaf_id].append(key)
        return grouped

    def edges_of(self, rnet_id: int) -> FrozenSet[EdgeKey]:
        """E_R of one Rnet: the edges whose leaf's chain passes through it."""
        level = self.rnet(rnet_id).level
        chain = self._chain
        return frozenset(
            key
            for key, leaf_id in self._leaf_of_edge.items()
            if len(chain[leaf_id]) > level and chain[leaf_id][level] == rnet_id
        )

    def containing_ids(self, node: int) -> Set[int]:
        """Ids of the Rnets whose node set holds ``node`` (unordered)."""
        return set().union(*self._incident_chains(node))

    def rnets_containing(self, node: int) -> List[Rnet]:
        """All Rnets whose node set contains ``node``, top-down."""
        return [
            self._rnets[i]
            for i in sorted(self.containing_ids(node), key=self._rank.__getitem__)
        ]

    @staticmethod
    def _interior_depth(chains: Set[Chain]) -> int:
        """Length of the chain prefix all of a node's incident edges share.

        Its last id is the deepest Rnet holding every incident edge: the
        node's interior Rnet.  0 when an incident edge is in no Rnet.
        """
        first, *rest = chains
        depth = len(first)
        for chain in rest:
            depth = min(depth, len(chain))
            # Chains are root-down paths in a tree: equal ids at one depth
            # mean equal prefixes above it.
            while depth and chain[depth - 1] != first[depth - 1]:
                depth -= 1
        return depth

    def interior_rnet(self, node: int) -> Rnet:
        """The deepest Rnet that contains ``node`` as an *interior* node.

        It and its ancestors are exactly the Rnets a search must descend
        to settle ``node``; an Rnet the node only borders is crossed on
        shortcuts that end at it.  A node on no edge gets the root.
        """
        chains = self._incident_chains(node)
        depth = self._interior_depth(chains) if chains else 0
        if not depth:
            return self.root
        return self._rnets[next(iter(chains))[depth - 1]]

    def border_roots(self, node: int) -> List[Rnet]:
        """Shortcut-tree roots for ``node`` (Section 3.4).

        The children of :meth:`interior_rnet` that contain ``node``: the
        highest-level Rnets for which the node is a border node.  Empty
        for non-border nodes (their tree is a single leaf of physical
        edges).
        """
        chains = self._incident_chains(node)
        if len(chains) < 2:
            return []
        # An unregistered incident edge shares no prefix: the root is then
        # the interior Rnet, at depth 1.
        depth = max(self._interior_depth(chains), 1)
        holders = {chain[depth] for chain in chains if len(chain) > depth}
        return [self._rnets[i] for i in sorted(holders)]

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
        already containing one endpoint — Case 1/2 of Section 5.2.2); the
        endpoints' border sets along every chain they touch are updated,
        including border promotion of an endpoint that lies in a different
        Rnet.

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
        self._refresh_borders_around(u, v, ())
        return leaf

    def remove_edge(self, u: int, v: int) -> Rnet:
        """Unregister an edge (already removed from the network).

        An endpoint left with no incident edge in an Rnet leaves its node
        set, and with it the border set (border demotion, Fig 12(b)).
        Returns the leaf Rnet the edge belonged to.
        """
        key = edge_key(u, v)
        if key not in self._leaf_of_edge:
            raise HierarchyError(f"edge {key} not registered")
        if self.network.has_edge(u, v):
            raise HierarchyError(f"edge {key} still present in the network")
        leaf_id = self._leaf_of_edge.pop(key)
        # The endpoints may have left Rnets on the removed edge's chain;
        # those no longer appear among the Rnets holding them.
        self._refresh_borders_around(u, v, self._chain[leaf_id])
        return self._rnets[leaf_id]

    def _default_leaf_for(self, u: int, v: int) -> Rnet:
        """Pick the leaf Rnet a new edge joins: prefer one containing u."""
        for node in (u, v):
            for rnet in reversed(self.rnets_containing(node)):
                if rnet.is_leaf:
                    return rnet
        raise HierarchyError(
            f"neither endpoint of ({u}, {v}) is known to the hierarchy"
        )

    def _refresh_borders_around(self, u: int, v: int, left: Iterable[int]) -> None:
        """Recompute border membership of u and v in every Rnet holding
        them, and in the Rnets ``left`` they may have just left."""
        for node in (u, v):
            chains = self._incident_chains(node)
            bordered = self._bordered(chains)
            for rnet_id in set().union(left, *chains):
                if rnet_id in bordered:
                    self._rnets[rnet_id].border.add(node)
                else:
                    self._rnets[rnet_id].border.discard(node)

    # ------------------------------------------------------------------
    # Validation (used heavily in tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check Definitions 1 and 4 across the whole hierarchy.

        Every Rnet's edge set is rebuilt from the map through the leaves'
        chains, and its border set checked against Definition 1 by brute
        force.
        """
        network_edges = {edge_key(u, v) for u, v, _ in self.network.edges()}
        if set(self._leaf_of_edge) != network_edges:
            raise HierarchyError("root Rnet does not cover the network")
        if self.root.border:
            raise HierarchyError("root Rnet must have no border nodes")
        edges: Dict[int, Set[EdgeKey]] = {i: set() for i in self._rnets}
        for leaf_id, keys in self.edges_by_leaf().items():
            if not self._rnets[leaf_id].is_leaf:
                raise HierarchyError(f"Rnet {leaf_id} holds edges but is no leaf")
            for rnet_id in self._chain[leaf_id]:
                edges[rnet_id].update(keys)
        nodes = {i: _incident(e) for i, e in edges.items()}
        for rnet in self._rnets.values():
            chain = self._chain[rnet.rnet_id]
            if len(chain) != rnet.level + 1 or chain[-1] != rnet.rnet_id:
                raise HierarchyError(f"Rnet {rnet.rnet_id}: chain broken")
            expected_border = {
                node
                for node in nodes[rnet.rnet_id]
                if any(
                    edge_key(node, nbr) not in edges[rnet.rnet_id]
                    for nbr, _ in self.network.neighbours(node)
                )
            }
            if rnet.border != expected_border:
                raise HierarchyError(
                    f"Rnet {rnet.rnet_id}: border {sorted(rnet.border)} != "
                    f"expected {sorted(expected_border)}"
                )
            if rnet.children:
                total = 0
                for child_id in rnet.children:
                    child = self._rnets[child_id]
                    if child.parent != rnet.rnet_id:
                        raise HierarchyError("parent/child link broken")
                    if child.level != rnet.level + 1:
                        raise HierarchyError("child level must be parent + 1")
                    total += len(edges[child_id])
                if total != len(edges[rnet.rnet_id]):
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
                            siblings |= nodes[other_id]
                    allowed = rnet.border | siblings
                    if not child.border <= allowed:
                        raise HierarchyError(
                            f"Rnet {child_id}: border escapes parent/siblings"
                        )

    def stats(self) -> Dict[str, float]:
        """Hierarchy shape summary for reports."""
        leaf_edges = [len(keys) for keys in self.edges_by_leaf().values()]
        borders = [len(r.border) for r in self._rnets.values() if not r.is_root]
        return {
            "rnets": len(self._rnets),
            "levels": self.num_levels,
            "leaves": len(leaf_edges),
            "avg_leaf_edges": (
                sum(leaf_edges) / len(leaf_edges) if leaf_edges else 0.0
            ),
            "avg_border": sum(borders) / len(borders) if borders else 0.0,
            "max_border": max(borders) if borders else 0,
        }


def _incident(edges: Iterable[EdgeKey]) -> FrozenSet[int]:
    return frozenset(node for edge in edges for node in edge)
