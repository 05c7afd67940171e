"""ROAD framework maintenance (Section 5).

Object changes touch only the Association Directory (Section 5.1) and are
implemented there.  This module handles *network* changes on the Route
Overlay side (Section 5.2):

* **Edge-distance change** — the filtering-and-refreshing scheme: identify
  the shortcuts of the enclosing finest Rnet that can be affected (filter),
  recompute only when needed (refresh), and propagate to the parent level
  only if some shortcut actually changed (Lemma 2's dependency).  Because
  a shortcut never leaves its Rnet (the constructive form of Definition 3
  built by Lemma 2), only the ancestor chain of the changed edge's leaf
  Rnet can be affected — the contrapositive of Lemma 3.
* **Edge addition/deletion** — modelled as distance changes plus border
  promotion/demotion (Section 5.2.2), updating the hierarchy's node and
  border sets and rebuilding the affected shortcut trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.network import EdgeKey, RoadNetwork, edge_key
from repro.graph.shortest_path import dijkstra_distances
from repro.core.rnet import Rnet, RnetHierarchy
from repro.core.route_overlay import RouteOverlay
from repro.core.shortcuts import (
    ShortcutIndex,
    compute_rnet_shortcuts,
    _leaf_adjacency,
)
from repro.objects.model import SpatialObject
from repro.queries.writes import (
    AddEdge,
    DeleteObject,
    InsertObject,
    RemoveEdge,
    UpdateEdgeDistance,
    UpdateObjectAttrs,
)

_REL_TOL = 1e-9


class MaintenanceError(Exception):
    """Raised on invalid network updates."""


@dataclass
class MaintenanceReport:
    """What one update did — the quantities Figures 15/16 measure.

    Besides the counters, a report carries the *identities* of everything
    the update touched: the Route Overlay entries rebuilt
    (``dirty_nodes``), the Rnets whose shortcut sets changed
    (``dirty_rnets``), and — for object churn — the object and the Rnet
    chain whose abstracts changed.  Those identities are what lets a
    compiled snapshot (:meth:`repro.core.frozen.FrozenRoad.apply`) patch
    only the affected CSR spans instead of recompiling the whole network.
    """

    #: What happened: the ``kind`` of the write
    #: (:data:`~repro.queries.writes.WRITE_TYPES`) that produced it.
    kind: str
    filtered_rnets: int = 0      # Rnets whose shortcuts were filter-checked
    refreshed_rnets: int = 0     # Rnets whose shortcut sets were recomputed
    changed_rnets: int = 0       # Rnets whose shortcut distances changed
    refreshed_tree_nodes: int = 0  # Route Overlay entries rebuilt
    levels_touched: int = 0      # hierarchy levels the update propagated to
    promoted_borders: List[int] = field(default_factory=list)
    demoted_borders: List[int] = field(default_factory=list)
    #: The edge the update concerns (canonical key), when it has one.
    edge: Optional[EdgeKey] = None
    #: Identities of the Route Overlay entries rebuilt by this update.
    dirty_nodes: Set[int] = field(default_factory=set)
    #: Identities of the Rnets whose shortcut sets (network updates) or
    #: object abstracts (object updates) changed.
    dirty_rnets: Set[int] = field(default_factory=set)
    #: Object updates only: the subset of ``dirty_rnets`` whose abstract
    #: can now answer some predicate differently (its
    #: :meth:`~repro.core.object_abstract.ObjectAbstract.pruning_key`
    #: moved) — the only Rnets where a search can switch between
    #: bypassing and descending because of this update.
    mask_rnets: Set[int] = field(default_factory=set)
    #: The object inserted/removed, for object-churn reports.
    obj: Optional[SpatialObject] = None
    #: The Association Directory the object churn happened in (None for
    #: network maintenance, which touches every attached directory alike).
    #: Lets a multi-directory snapshot patch only the churned provider's
    #: object spans and abstract slots.
    directory: Optional[str] = None

    @property
    def structural(self) -> bool:
        """True when the update changed border sets or network structure.

        Structural updates invalidate the shape of compiled shortcut-tree
        spans, so a snapshot patcher must fall back to a full recompile.
        """
        return (
            self.kind in (AddEdge.kind, RemoveEdge.kind)
            or bool(self.promoted_borders)
            or bool(self.demoted_borders)
        )

    @property
    def object_churn(self) -> bool:
        """True for an object write's report (Section 5.1)."""
        return self.kind in (InsertObject.kind, DeleteObject.kind, UpdateObjectAttrs.kind)


def change_edge_distance(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    overlay: RouteOverlay,
    u: int,
    v: int,
    new_distance: float,
) -> MaintenanceReport:
    """Apply an edge-distance change with filtering-and-refreshing."""
    if not 0 < new_distance < math.inf:  # NaN fails both comparisons
        raise MaintenanceError("edge distance must stay positive and finite")
    report = MaintenanceReport(kind=UpdateEdgeDistance.kind, edge=edge_key(u, v))
    old_distance = network.update_edge(u, v, new_distance)
    leaf = hierarchy.leaf_of_edge(u, v)
    if math.isclose(old_distance, new_distance, rel_tol=_REL_TOL):
        # The physical edge record still changed representation-wise.
        overlay.refresh_nodes([u, v])
        report.refreshed_tree_nodes = 2
        report.dirty_nodes = {u, v}
        return report

    dirty_nodes: Set[int] = {u, v}
    chain = hierarchy.ancestors(leaf.rnet_id)
    child_changed = True
    for rnet in chain:
        if rnet.is_root:
            break
        report.levels_touched += 1
        if rnet.is_leaf:
            report.filtered_rnets += 1
            affected = _filter_leaf_shortcuts(
                hierarchy, shortcuts, rnet, u, v, old_distance, new_distance
            )
            if not affected:
                child_changed = False
                break
            changed = _refresh_rnet(network, hierarchy, shortcuts, rnet)
            report.refreshed_rnets += 1
        else:
            if not child_changed:
                break  # Lemma 2: parents depend only on child shortcuts
            changed = _refresh_rnet(network, hierarchy, shortcuts, rnet)
            report.refreshed_rnets += 1
        if changed:
            report.changed_rnets += 1
            report.dirty_rnets.add(rnet.rnet_id)
            dirty_nodes |= rnet.border
        child_changed = changed
        if not changed:
            break

    overlay.refresh_nodes(dirty_nodes)
    report.refreshed_tree_nodes = len(dirty_nodes)
    report.dirty_nodes = dirty_nodes
    return report


def add_edge(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    overlay: RouteOverlay,
    u: int,
    v: int,
    distance: float,
    *,
    coords: Optional[Dict[int, Tuple[float, float]]] = None,
) -> MaintenanceReport:
    """Add a road segment (Section 5.2.2, 'Addition of a new edge').

    Unknown endpoints are created as new nodes (``coords`` supplies their
    positions).  The edge joins a leaf Rnet containing one endpoint; an
    endpoint from a different Rnet is promoted to border node and receives
    fresh shortcuts.
    """
    report = MaintenanceReport(kind=AddEdge.kind, edge=edge_key(u, v))
    for node in (u, v):
        if not network.has_node(node):
            if coords is None or node not in coords:
                raise MaintenanceError(
                    f"new node {node} needs coordinates"
                )
            x, y = coords[node]
            network.add_node(node, x, y)
    border_before = _border_snapshot(hierarchy, {u, v})
    network.add_edge(u, v, distance)
    hierarchy.add_edge(u, v)
    report.promoted_borders = _promotions(hierarchy, border_before, {u, v})

    # A cross-Rnet edge changes border sets in *both* endpoints' Rnet
    # chains (the promoted node needs shortcuts inside its own Rnets too),
    # so every Rnet containing u or v is refreshed, deepest level first.
    dirty = _refresh_around_nodes(network, hierarchy, shortcuts, {u, v}, report)
    dirty |= {u, v}
    # Promotion changes the shortcut trees of every border of the Rnets the
    # promoted node now borders.
    for node in report.promoted_borders:
        for rnet in hierarchy.rnets_containing(node):
            if node in rnet.border:
                dirty |= rnet.border
    overlay.refresh_nodes(dirty)
    report.refreshed_tree_nodes = len(dirty)
    report.dirty_nodes = dirty
    return report


def remove_edge(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    overlay: RouteOverlay,
    u: int,
    v: int,
) -> MaintenanceReport:
    """Delete a road segment (Section 5.2.2, 'Deletion of an existing edge').

    Border nodes whose external edges disappear are demoted (Fig 12(b):
    ``n_g`` after deleting ``(n_f, n_g)``).
    """
    report = MaintenanceReport(kind=RemoveEdge.kind, edge=edge_key(u, v))
    border_before = _border_snapshot(hierarchy, {u, v})
    network.remove_edge(u, v)
    hierarchy.remove_edge(u, v)
    report.demoted_borders = _demotions(hierarchy, border_before, {u, v})

    dirty = _refresh_around_nodes(network, hierarchy, shortcuts, {u, v}, report)
    dirty |= {u, v}
    for node in report.demoted_borders:
        for rnet in hierarchy.rnets_containing(node):
            dirty |= rnet.border
            dirty.add(node)
    overlay.refresh_nodes(n for n in dirty if network.has_node(n))
    report.refreshed_tree_nodes = len(dirty)
    report.dirty_nodes = {n for n in dirty if network.has_node(n)}
    return report


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _filter_leaf_shortcuts(
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    rnet: Rnet,
    u: int,
    v: int,
    old_distance: float,
    new_distance: float,
) -> List[Tuple[int, int]]:
    """The 'filtering' step: shortcut pairs that may be invalidated.

    Increase: a shortcut is affected iff its stored distance equals a path
    through (u, v) *at the old weight*.  Decrease: iff the new weight opens
    a path shorter than the stored distance.  Distances from u and v to the
    Rnet's borders are found by two in-Rnet Dijkstras (Fig 12(a)).
    """
    increase = new_distance > old_distance
    # For the increase test the detour distances must be measured with the
    # old weight; override the single changed edge.
    base = _leaf_adjacency(hierarchy, rnet)
    override = old_distance if increase else new_distance

    def adjacency(node: int) -> Iterator[Tuple[int, float]]:
        for neighbour, distance in base(node):
            if edge_key(node, neighbour) == edge_key(u, v):
                yield neighbour, override
            else:
                yield neighbour, distance

    from_u = dijkstra_distances(adjacency, u, targets=set(rnet.border))
    from_v = dijkstra_distances(adjacency, v, targets=set(rnet.border))
    edge_term = old_distance if increase else new_distance

    affected: List[Tuple[int, int]] = []
    for shortcut in shortcuts.of_rnet(rnet.rnet_id):
        b, b2 = shortcut.source, shortcut.target
        candidates = []
        if b in from_u and b2 in from_v:
            candidates.append(from_u[b] + edge_term + from_v[b2])
        if b in from_v and b2 in from_u:
            candidates.append(from_v[b] + edge_term + from_u[b2])
        if not candidates:
            continue
        through = min(candidates)
        if increase:
            if through <= shortcut.distance * (1 + _REL_TOL):
                affected.append((b, b2))
        else:
            if through < shortcut.distance * (1 - _REL_TOL):
                affected.append((b, b2))
    return affected


def _refresh_rnet(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    rnet: Rnet,
) -> bool:
    """The 'refreshing' step: recompute one Rnet's shortcut set.

    Returns True if any pair's distance changed (or pairs appeared or
    disappeared), which is the propagation condition for the parent level.
    """
    before = shortcuts.distances_of_rnet(rnet.rnet_id)
    fresh = compute_rnet_shortcuts(network, hierarchy, shortcuts, rnet)
    shortcuts.replace_rnet(rnet.rnet_id, fresh)
    after = shortcuts.distances_of_rnet(rnet.rnet_id)
    if before.keys() != after.keys():
        return True
    return any(
        not math.isclose(before[pair], after[pair], rel_tol=_REL_TOL)
        for pair in before
    )


def _refresh_around_nodes(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    shortcuts: ShortcutIndex,
    nodes: Set[int],
    report: MaintenanceReport,
) -> Set[int]:
    """Refresh every Rnet containing one of ``nodes``; return dirty nodes.

    Structure changes can alter border sets in the Rnet chains of both
    endpoints, so all their Rnets are recomputed, deepest level first
    (parent border graphs depend on child shortcuts, Lemma 2).
    """
    affected: Dict[int, Rnet] = {}
    for node in nodes:
        for rnet in hierarchy.rnets_containing(node):
            if not rnet.is_root:
                affected[rnet.rnet_id] = rnet
    dirty: Set[int] = set()
    levels = set()
    for rnet in sorted(affected.values(), key=lambda r: -r.level):
        changed = _refresh_rnet(network, hierarchy, shortcuts, rnet)
        report.refreshed_rnets += 1
        levels.add(rnet.level)
        if changed:
            report.changed_rnets += 1
            report.dirty_rnets.add(rnet.rnet_id)
            dirty |= rnet.border
    report.levels_touched += len(levels)
    return dirty


def _border_snapshot(
    hierarchy: RnetHierarchy, nodes: Set[int]
) -> Dict[int, Set[int]]:
    """rnet_id -> border-membership of the watched nodes, before a change."""
    snapshot: Dict[int, Set[int]] = {}
    for node in nodes:
        for rnet in hierarchy.rnets_containing(node):
            snapshot.setdefault(rnet.rnet_id, set())
            if node in rnet.border:
                snapshot[rnet.rnet_id].add(node)
    return snapshot


def _promotions(
    hierarchy: RnetHierarchy, before: Dict[int, Set[int]], nodes: Set[int]
) -> List[int]:
    """Nodes that newly became border nodes of some Rnet."""
    promoted: Set[int] = set()
    for node in nodes:
        for rnet in hierarchy.rnets_containing(node):
            was = node in before.get(rnet.rnet_id, set())
            if not was and node in rnet.border:
                promoted.add(node)
    return sorted(promoted)


def _demotions(
    hierarchy: RnetHierarchy, before: Dict[int, Set[int]], nodes: Set[int]
) -> List[int]:
    """Nodes that stopped being border nodes of some Rnet."""
    demoted: Set[int] = set()
    for node in nodes:
        for rnet in hierarchy.rnets_containing(node):
            was = node in before.get(rnet.rnet_id, set())
            if was and node not in rnet.border:
                demoted.add(node)
    return sorted(demoted)
