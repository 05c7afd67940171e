"""ROAD search algorithms: kNNSearch, RangeSearch, ChoosePath (Section 4).

Both queries are Dijkstra-style network expansions from the query node that
"navigate Rnets in detail only if they contain objects of interest;
otherwise bypass them" through shortcuts.  A priority queue holds pending
nodes and objects in non-descending distance order; popping an object with
the smallest key yields its exact network distance, so the first k popped
objects are the kNN answer (Figure 9) and every object popped within the
radius is a range answer.

``ChoosePath`` (Figure 10) walks the popped node's shortcut tree depth
first: each Rnet entry is checked against the Association Directory — an
Rnet without objects of interest is bypassed by enqueueing its shortcut
endpoints; one with objects is descended into child entries, down to
physical edges at the finest level.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.core.association_directory import AssociationDirectory
from repro.core.paths import PathTracer
from repro.core.rnet import RnetHierarchy
from repro.core.route_overlay import RouteOverlay
from repro.core.shortcuts import Shortcut
from repro.objects.model import SpatialObject
from repro.queries.types import ANY, Predicate, ResultEntry


@dataclass
class SearchStats:
    """Traversal counters for one query (used by the evaluation and tests).

    Besides the scalar counters, a search records its *footprint*: the
    node ids it pushed (``visited_nodes`` — settled, still queued when
    it stopped, or popped beyond its bound; see :func:`object_sweep`),
    the Rnet ids whose Association Directory abstract it consulted
    (``visited_rnets``, every entry examined by ChoosePath — bypassed,
    descended, or leaf), and the subset of those it crossed on
    shortcuts (``bypassed_rnets``).  One query reads one abstract
    answer per Rnet, so an examined Rnet is either bypassed or
    descended (its children or leaf edges walked), never both.
    The footprint bounds what a maintenance report can change in the
    answer (Section 5): a reweighed edge matters only through a node
    in ``visited_nodes``, a refreshed Rnet's shortcuts only if it was
    bypassed, and an abstract flip only on the side the search took —
    which is what the serving result cache keys invalidation on.  Both
    engines must report identical sets for the same query — the
    cross-engine parity suites compare whole ``SearchStats`` values,
    footprints included.
    """

    nodes_popped: int = 0
    objects_popped: int = 0
    edges_relaxed: int = 0
    shortcuts_taken: int = 0
    rnets_bypassed: int = 0
    rnets_descended: int = 0
    visited_nodes: Set[int] = field(default_factory=set)
    visited_rnets: Set[int] = field(default_factory=set)
    bypassed_rnets: Set[int] = field(default_factory=set)

    @property
    def expansions(self) -> int:
        """Total queue relaxations performed."""
        return self.edges_relaxed + self.shortcuts_taken


class AbstractCache:
    """Memo of SearchObject(AD, R) outcomes for one (directory, predicate).

    A search reaching several border nodes of one Rnet would otherwise
    repeat the same Association Directory lookup; within a single query the
    answer cannot change, so the first lookup is remembered (the loaded
    abstract stays in the buffer anyway — this also saves the CPU of
    re-descending the B+-tree).  A batch caller
    (:meth:`repro.core.framework.ROAD.execute_many`) may share one cache
    across every query with the same predicate, as long as the directory
    does not change between queries.
    """

    __slots__ = ("_directory", "_predicate", "_memo")

    def __init__(self, directory: ObjectSource, predicate: Predicate):
        self._directory = directory
        self._predicate = predicate
        self._memo: Dict[int, bool] = {}

    def may_contain(self, rnet_id: int) -> bool:
        cached = self._memo.get(rnet_id)
        if cached is None:
            cached = self._directory.rnet_may_contain(rnet_id, self._predicate)
            self._memo[rnet_id] = cached
        return cached


class TargetSet:
    """An OD query's distinct targets, posing as one sweep's directory.

    Target ``i`` is an object on its node at offset 0.  SearchObject(AD,
    R) holds for the Rnets containing a target as an interior node (its
    :meth:`~repro.core.rnet.RnetHierarchy.interior_rnet` and ancestors);
    every other Rnet is crossed on shortcuts, which end at a target that
    borders it.  The compiled twin is
    :meth:`repro.core.frozen.FrozenRoad._target_goal`.
    """

    def __init__(self, hierarchy: RnetHierarchy, targets: Iterable[int]) -> None:
        self._at = {
            node: [(SpatialObject(i, (node, node), 0.0), 0.0)]
            for i, node in enumerate(targets)
        }
        self._rnets = {
            rnet.rnet_id
            for node in self._at
            for rnet in hierarchy.ancestors(
                hierarchy.interior_rnet(node).rnet_id
            )
        }

    def node_objects(self, node: int) -> List[Tuple[SpatialObject, float]]:
        return self._at.get(node, [])

    def rnet_may_contain(self, rnet_id: int, predicate: Predicate) -> bool:
        return rnet_id in self._rnets


#: What :func:`object_sweep` reads objects and Rnet abstracts from.
ObjectSource = Union[AssociationDirectory, TargetSet]


class _Frontier:
    """Priority queue of pending nodes and objects (the ``P`` of Fig 9).

    Each entry optionally carries its *origin* — the (predecessor, move)
    that produced it — so a :class:`~repro.core.paths.PathTracer` can later
    materialise full routes to the answers.
    """

    _NODE = 0
    _OBJECT = 1

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, int, object]] = []
        self._seq = itertools.count()

    def push_node(
        self,
        node: int,
        distance: float,
        origin: Optional[Tuple[int, Optional[Shortcut]]] = None,
    ) -> None:
        heapq.heappush(
            self._heap, (distance, next(self._seq), self._NODE, node, origin)
        )

    def push_object(
        self,
        object_id: int,
        distance: float,
        origin: Optional[Tuple[int, float]] = None,
    ) -> None:
        heapq.heappush(
            self._heap,
            (distance, next(self._seq), self._OBJECT, object_id, origin),
        )

    def pop(self) -> Tuple[float, bool, int, object]:
        """(distance, is_object, id, origin) of the nearest pending entry."""
        distance, _, kind, item, origin = heapq.heappop(self._heap)
        return distance, kind == self._OBJECT, item, origin

    def pending_nodes(self) -> List[int]:
        """Nodes still queued (pushed, never popped).

        The sweep's *frontier boundary*: together with the settled set it
        is every node whose distance the search examined, which is the
        closure a result-cache footprint needs — a patch strictly beyond
        the boundary cannot reach into the answer, but one *on* it can
        (an exact distance tie at the stopping bound).
        """
        return [
            item  # type: ignore[misc]  # _NODE entries carry int items
            for _, _, kind, item, _ in self._heap
            if kind == self._NODE
        ]

    def __bool__(self) -> bool:
        return bool(self._heap)


def object_sweep(
    overlay: RouteOverlay,
    directory: ObjectSource,
    seeds: Iterable[int],
    predicate: Predicate = ANY,
    stats: Optional[SearchStats] = None,
    tracer: Optional[PathTracer] = None,
    abstracts: Optional[AbstractCache] = None,
    *,
    k: Optional[int] = None,
    radius: float = float("inf"),
    drain_ties: bool = False,
) -> Iterator[Tuple[float, int]]:
    """The one charged expansion: yield (distance, object_id), nearest first.

    Every query kind is this loop with a different stop rule.  Each seed
    enters one frontier at distance 0 (duplicates collapse), so a yielded
    distance is the minimum over seeds; each pop is SearchObject then
    ChoosePath on the settled node.  The sweep ends when the frontier
    runs dry, when a pop lies beyond ``radius`` (inclusive bound), or
    after the ``k``-th object — at once, or, with ``drain_ties``, once
    the objects tied with the k-th are out too, so a consumer can cut
    the canonical (distance, id) prefix instead of a push-order one.
    It advances only as far as the consumer pulls.  ``directory`` may be
    an OD query's :class:`TargetSet`, whose objects are its targets.

    ``stats.visited_nodes`` ends up holding **every node the sweep
    pushed**: the settled nodes, the nodes still queued when it ends or
    is closed, and the node (if it is one) whose pop tripped the bound —
    the same rule as :meth:`repro.core.frozen.FrozenRoad._sweep`, which
    skips pushes to settled nodes where this frontier keeps them as
    stale duplicates; a skipped target is in the settled set already, so
    the two engines report identical footprints.
    """
    stats = stats if stats is not None else SearchStats()
    frontier = _Frontier()
    for node in dict.fromkeys(seeds):
        frontier.push_node(node, 0.0)
    visited_nodes: Set[int] = set()
    visited_objects: Set[int] = set()
    if abstracts is None:
        abstracts = AbstractCache(directory, predicate)
    found = 0
    try:
        while frontier:
            distance, is_object, item, origin = frontier.pop()
            if distance > radius:
                # Everything else is farther: the bounded space is done.
                if not is_object:
                    stats.visited_nodes.add(item)
                break
            if is_object:
                if item in visited_objects:
                    continue
                visited_objects.add(item)
                stats.objects_popped += 1
                if tracer is not None and origin is not None:
                    tracer.record_object(item, origin[0], origin[1])
                found += 1
                yield distance, item
                if found == k:
                    if not drain_ties:
                        break
                    radius = distance  # only the k-th's ties remain
                continue
            if item in visited_nodes:
                continue
            visited_nodes.add(item)
            stats.nodes_popped += 1
            stats.visited_nodes.add(item)
            if tracer is not None and origin is not None:
                tracer.record_node(item, origin[0], origin[1])
            _collect_node_objects(
                directory, frontier, item, distance, predicate, visited_objects
            )
            _choose_path_cached(
                overlay, abstracts, frontier, item, distance, stats
            )
    finally:
        stats.visited_nodes.update(frontier.pending_nodes())


def sweep_results(*args: Any, **kwargs: Any) -> List[ResultEntry]:
    """One :func:`object_sweep` run to its stop rule, as rows in pop order."""
    return [
        ResultEntry(item, distance)
        for distance, item in object_sweep(*args, **kwargs)
    ]


def knn_search(
    overlay: RouteOverlay,
    directory: AssociationDirectory,
    query_node: int,
    k: int,
    predicate: Predicate = ANY,
    stats: Optional[SearchStats] = None,
    tracer: Optional[PathTracer] = None,
    abstracts: Optional[AbstractCache] = None,
) -> List[ResultEntry]:
    """Algorithm kNNSearch (Figure 9).

    Returns up to ``k`` matching objects in non-descending network distance
    (fewer if the network holds fewer matching objects).  Pass a
    :class:`~repro.core.paths.PathTracer` to record enough provenance to
    materialise full routes to the answers afterwards, and/or a shared
    :class:`AbstractCache` to reuse Rnet-pruning decisions across a batch.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sweep_results(
        overlay, directory, (query_node,), predicate, stats, tracer,
        abstracts, k=k,
    )


def range_search(
    overlay: RouteOverlay,
    directory: AssociationDirectory,
    query_node: int,
    radius: float,
    predicate: Predicate = ANY,
    stats: Optional[SearchStats] = None,
    tracer: Optional[PathTracer] = None,
    abstracts: Optional[AbstractCache] = None,
) -> List[ResultEntry]:
    """Algorithm RangeSearch (Section 4).

    Identical expansion to kNNSearch, except it terminates once the network
    within ``radius`` is exhausted and returns every matching object found.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return sweep_results(
        overlay, directory, (query_node,), predicate, stats, tracer,
        abstracts, radius=radius,
    )


def iter_nearest_objects(
    overlay: RouteOverlay,
    directory: AssociationDirectory,
    query_node: int,
    predicate: Predicate = ANY,
    stats: Optional[SearchStats] = None,
    abstracts: Optional[AbstractCache] = None,
) -> Iterator[Tuple[float, int]]:
    """Lazily yield matching objects in non-descending network distance.

    The incremental form of kNNSearch: the unbounded sweep, advancing
    only as far as the consumer pulls.  Used by aggregate queries
    (:mod:`repro.core.aggregate`) that interleave several expansions — a
    shared :class:`AbstractCache` lets them reuse Rnet-pruning decisions
    across expansions (and, via batch callers, across queries).
    """
    return object_sweep(
        overlay, directory, (query_node,), predicate, stats,
        abstracts=abstracts,
    )


def choose_path(
    overlay: RouteOverlay,
    directory: AssociationDirectory,
    frontier: _Frontier,
    node: int,
    distance: float,
    predicate: Predicate,
    stats: SearchStats,
) -> None:
    """Algorithm ChoosePath (Figure 10).

    Decides how the expansion continues from ``node``: bypass object-free
    Rnets via shortcuts, descend object-bearing ones, and relax physical
    edges at the finest level.
    """
    _choose_path_cached(
        overlay, AbstractCache(directory, predicate), frontier, node,
        distance, stats,
    )


def _choose_path_cached(
    overlay: RouteOverlay,
    abstracts: AbstractCache,
    frontier: _Frontier,
    node: int,
    distance: float,
    stats: SearchStats,
) -> None:
    tree = overlay.shortcut_tree(node)
    if not tree.roots:
        # Non-border node: a single leaf of physical edges (Fig 6, n_q).
        for neighbour, weight in tree.local_edges:
            frontier.push_node(neighbour, distance + weight, (node, None))
            stats.edges_relaxed += 1
        return

    stack = list(tree.roots)
    while stack:
        entry = stack.pop()
        stats.visited_rnets.add(entry.rnet_id)
        if not abstracts.may_contain(entry.rnet_id):
            # Bypass: jump straight to the Rnet's other border nodes.
            stats.rnets_bypassed += 1
            stats.bypassed_rnets.add(entry.rnet_id)
            for shortcut in entry.shortcuts:
                frontier.push_node(
                    shortcut.target,
                    distance + shortcut.distance,
                    (node, shortcut),
                )
                stats.shortcuts_taken += 1
            continue
        if entry.is_leaf:
            # Finest Rnet with objects of interest: traverse its edges.
            for neighbour, weight in entry.edges:
                frontier.push_node(neighbour, distance + weight, (node, None))
                stats.edges_relaxed += 1
        else:
            stats.rnets_descended += 1
            stack.extend(entry.children)


def _collect_node_objects(
    directory: ObjectSource,
    frontier: _Frontier,
    node: int,
    distance: float,
    predicate: Predicate,
    visited_objects: Set[int],
) -> None:
    """SearchObject(AD, node): enqueue matching objects at this node."""
    for obj, delta in directory.node_objects(node):
        if obj.object_id in visited_objects:
            continue
        if predicate.matches(obj):
            frontier.push_object(obj.object_id, distance + delta, (node, delta))
