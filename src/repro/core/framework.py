"""The ROAD framework facade.

One object wiring everything together the way Section 3 describes: a road
network is partitioned into an Rnet hierarchy, shortcuts are computed
bottom-up, the Route Overlay indexes nodes with their shortcut trees, and
any number of Association Directories map object sets onto the same
network.  Queries (Section 4) and maintenance (Section 5) are entry points
on this facade.

Typical use::

    road = ROAD.build(network, levels=4, fanout=4)
    road.attach_objects(objects)               # the default directory
    nearest = road.knn(query_node, k=5)
    hotels = road.range(venue, 1000.0, Predicate.of(type="hotel"))
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.association_directory import AssociationDirectory
from repro.core.dispatch import (
    DEFAULT_DIRECTORY,
    BatchContext,
    RoadOwner,
    UnknownDirectoryError,
)
from repro.core.maintenance import (
    MaintenanceError,
    MaintenanceReport,
    add_edge as _add_edge,
    change_edge_distance as _change_edge_distance,
    remove_edge as _remove_edge,
)
from repro.core.frozen import FrozenRoad
from repro.core.multi_source import (
    bucket_entries,
    normalize_breaks,
    od_entries,
)
from repro.core.object_abstract import AbstractFactory, exact_abstract
from repro.core.paths import PathTracer, object_path
from repro.core.rnet import RnetHierarchy
from repro.core.route_overlay import RouteOverlay, RouteOverlayError
from repro.core.search import (
    AbstractCache,
    SearchStats,
    TargetSet,
    knn_search,
    object_sweep,
    range_search,
    sweep_results,
)
from repro.core.shortcuts import ShortcutIndex, build_shortcuts
from repro.graph.network import RoadNetwork, edge_key
from repro.objects.model import ObjectSet, SpatialObject
from repro.partition.hierarchy import Bisector, PartitionNode, build_partition_tree
from repro.queries.types import (
    ANY,
    ODMatrixEntry,
    Predicate,
    ResultEntry,
    ResultRow,
    ServiceAreaEntry,
    sort_result,
)
from repro.queries.writes import WRITE_TYPES, DeleteObject, InsertObject, UpdateObjectAttrs
from repro.storage.pager import PageManager

#: Declared write class -> the ROAD method its ``kind`` names, and a
#: getter for its fields in declaration order: that method's arguments
#: (every write has two fields or more, so the getter returns a tuple).
_WRITES = {t: (t.kind, attrgetter(*(f.name for f in fields(t)))) for t in WRITE_TYPES}


@dataclass(frozen=True)
class RoutedResult:
    """One answer object with its materialised route.

    ``path`` is the physical node sequence from the query node to the
    object's host-edge entry node; ``approach`` is the remaining distance
    to cover along the host edge.  ``entry.distance`` equals the path's
    edge-length sum plus ``approach``.
    """

    entry: ResultEntry
    path: List[int]
    approach: float


@dataclass
class BuildReport:
    """Wall-clock breakdown of an index build (Figure 13/14 metric)."""

    partition_seconds: float = 0.0
    shortcut_seconds: float = 0.0
    overlay_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end construction time."""
        return self.partition_seconds + self.shortcut_seconds + self.overlay_seconds


class ROAD(RoadOwner):
    """A built ROAD index over one road network.

    Queries run the paper's charged disk path; as a
    :class:`~repro.core.dispatch.QueryExecutor` the facade shares
    ``execute`` / ``execute_many`` signatures with every other engine.
    As a :class:`~repro.core.dispatch.RoadOwner` it keeps no snapshot of
    its own and records each maintenance report in :attr:`last_report`;
    :meth:`write` applies a declared write through the method its
    ``kind`` names.
    """

    def __init__(
        self,
        network: RoadNetwork,
        hierarchy: RnetHierarchy,
        shortcuts: ShortcutIndex,
        overlay: RouteOverlay,
        pager: PageManager,
        build_report: BuildReport,
    ) -> None:
        self.network = network
        self.hierarchy = hierarchy
        self.shortcuts = shortcuts
        self.overlay = overlay
        self.pager = pager
        self.build_report = build_report
        self._directories: Dict[str, AssociationDirectory] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        *,
        levels: int = 4,
        fanout: int = 4,
        bisector: Optional[Bisector] = None,
        partition_tree: Optional[PartitionNode] = None,
        reduce_shortcuts: bool = True,
        buffer_pages: int = 50,
        pager: Optional[PageManager] = None,
    ) -> "ROAD":
        """Build the framework over a network.

        Parameters mirror Table 1: ``levels`` is the Rnet hierarchy depth
        ``l`` and ``fanout`` the partition factor ``p``.  A pre-computed
        ``partition_tree`` (e.g. semantic or object-based) overrides the
        default geometric+KL partitioning.  ``reduce_shortcuts`` toggles the
        Lemma-4 storage reduction (ablation hook).
        """
        report = BuildReport()
        t0 = time.perf_counter()
        if partition_tree is None:
            partition_tree = build_partition_tree(
                network, levels=levels, fanout=fanout, bisector=bisector
            )
        hierarchy = RnetHierarchy(network, partition_tree)
        report.partition_seconds = time.perf_counter() - t0

        t1 = time.perf_counter()
        shortcuts = build_shortcuts(network, hierarchy, reduce=reduce_shortcuts)
        report.shortcut_seconds = time.perf_counter() - t1

        t2 = time.perf_counter()
        if pager is None:
            pager = PageManager(buffer_pages=buffer_pages, name="road")
        overlay = RouteOverlay(pager, network, hierarchy, shortcuts)
        report.overlay_seconds = time.perf_counter() - t2
        return cls(network, hierarchy, shortcuts, overlay, pager, report)

    # ------------------------------------------------------------------
    # Object management (content-provider side)
    # ------------------------------------------------------------------
    def attach_objects(
        self,
        objects: ObjectSet,
        *,
        name: str = DEFAULT_DIRECTORY,
        abstract_factory: AbstractFactory = exact_abstract,
    ) -> AssociationDirectory:
        """Map an object set onto the network as a new directory.

        Multiple directories — different providers, types, or formats —
        may coexist on the same Route Overlay (Section 3.4).
        """
        if name in self._directories:
            raise ValueError(f"directory {name!r} already attached")
        directory = AssociationDirectory(
            self.pager,
            self.network,
            self.hierarchy,
            objects,
            abstract_factory=abstract_factory,
            name=name,
        )
        self._directories[name] = directory
        return directory

    def detach_objects(self, name: str = DEFAULT_DIRECTORY) -> None:
        """Remove a directory and free its pages.

        The pager has no lazy reclamation, so the directory's B+-tree pages
        are released eagerly here; ``pager.page_count`` returns to its
        pre-attach value.  The directory object must not be used afterwards.
        """
        try:
            directory = self._directories.pop(name)
        except KeyError:
            raise UnknownDirectoryError(self, name, self._directories) from None
        directory.free_pages()

    def directory(self, name: str = DEFAULT_DIRECTORY) -> AssociationDirectory:
        """A previously attached directory."""
        try:
            return self._directories[name]
        except KeyError:
            raise UnknownDirectoryError(self, name, self._directories) from None

    @property
    def directory_names(self) -> List[str]:
        """Names of attached directories."""
        return list(self._directories)

    def has_node(self, node: int) -> bool:
        return self.network.has_node(node)

    def write(self, w: object) -> MaintenanceReport:
        """Apply one declared write through the method its ``kind`` names."""
        if type(w) not in _WRITES:
            raise TypeError(f"ROAD applies no write {type(w).__name__}")
        kind, args_of = _WRITES[type(w)]
        method: Callable[..., MaintenanceReport] = getattr(self, kind)
        return method(*args_of(w))

    def insert_object(
        self, obj: SpatialObject, directory: str = DEFAULT_DIRECTORY
    ) -> MaintenanceReport:
        """Insert an object (Section 5.1; Route Overlay untouched).

        Returns a report identifying the touched node entries, the Rnet
        chain whose abstracts changed (and those of it whose pruning
        answers can differ now), and the directory churned — enough for
        :meth:`repro.core.frozen.FrozenRoad.apply` to patch a snapshot,
        including one compiled over several directories, and for the
        serving result cache to evict only the answers it can reach.
        """
        target = self.directory(directory)
        before = target.pruning_keys(obj.edge)
        target.insert(obj)
        return self._object_report(InsertObject.kind, obj, directory, before)

    def delete_object(
        self, object_id: int, directory: str = DEFAULT_DIRECTORY
    ) -> MaintenanceReport:
        """Delete an object (Section 5.1).

        Returns a report whose ``obj`` field carries the removed object.
        """
        target = self.directory(directory)
        before = target.pruning_keys(target.get_object(object_id).edge)
        removed = target.delete(object_id)
        return self._object_report(DeleteObject.kind, removed, directory, before)

    def _object_report(
        self,
        kind: str,
        obj: SpatialObject,
        directory: str,
        before: Dict[int, Hashable],
    ) -> MaintenanceReport:
        """The report of one object write on ``obj``'s edge, ``before``
        holding the chain's pruning keys taken ahead of the write."""
        u, v = obj.edge
        after = self.directory(directory).pruning_keys(obj.edge)
        report = self.last_report = MaintenanceReport(
            kind=kind,
            edge=edge_key(u, v),
            dirty_nodes={u, v},
            dirty_rnets=set(after),
            mask_rnets={
                rnet_id for rnet_id, key in after.items() if key != before[rnet_id]
            },
            obj=obj,
            directory=directory,
        )
        return report

    def update_object_attrs(
        self,
        object_id: int,
        attrs: Dict[str, str],
        directory: str = DEFAULT_DIRECTORY,
    ) -> MaintenanceReport:
        """Update an object's attributes (Section 5.1).

        Returns a report (kind ``update_object_attrs``, ``obj`` = the updated
        object) so a patched snapshot can refresh the object's entries and
        the Rnet chain's abstracts/masks.
        """
        target = self.directory(directory)
        before = target.pruning_keys(target.get_object(object_id).edge)
        updated = target.update_attrs(object_id, attrs)
        return self._object_report(UpdateObjectAttrs.kind, updated, directory, before)

    # ------------------------------------------------------------------
    # Queries (Section 4)
    # ------------------------------------------------------------------
    def knn(
        self,
        node: int,
        k: int,
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
        stats: Optional[SearchStats] = None,
        abstracts: Optional[AbstractCache] = None,
    ) -> List[ResultEntry]:
        """k nearest matching objects from ``node`` by network distance.

        ``abstracts`` shares one Rnet-pruning cache across queries
        (batch callers).
        """
        return knn_search(
            self.overlay, self.directory(directory), node, k, predicate, stats,
            abstracts=abstracts,
        )

    def range(
        self,
        node: int,
        radius: float,
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
        stats: Optional[SearchStats] = None,
        abstracts: Optional[AbstractCache] = None,
    ) -> List[ResultEntry]:
        """All matching objects within network distance ``radius``.

        ``abstracts`` shares one Rnet-pruning cache across queries
        (batch callers).
        """
        return range_search(
            self.overlay, self.directory(directory), node, radius, predicate, stats,
            abstracts=abstracts,
        )

    def aggregate_knn(
        self,
        nodes: Iterable[int],
        k: int,
        agg: str = "sum",
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
        stats: Optional[SearchStats] = None,
        abstracts: Optional[AbstractCache] = None,
    ) -> List[ResultEntry]:
        """Aggregate kNN: objects minimising agg(distances from ``nodes``).

        An extension LDSQ (the paper's future work; cf. aggregate NN [19]):
        ``agg`` is ``"sum"``, ``"max"`` or ``"min"``.  The returned
        ``distance`` fields carry the aggregate values.  ``abstracts``
        shares one Rnet-pruning cache across expansions (batch callers).
        """
        from repro.core.aggregate import aggregate_knn as _aggregate

        return _aggregate(
            self.overlay,
            self.directory(directory),
            list(nodes),
            k,
            agg,
            predicate,
            stats,
            abstracts,
        )

    def od_matrix(
        self,
        sources: Iterable[int],
        targets: Iterable[int],
        *,
        directory: Optional[str] = None,
        stats: Optional[SearchStats] = None,
    ) -> List[ODMatrixEntry]:
        """Many-to-many network distances (the OD cost matrix workload).

        One object sweep per distinct source whose objects are the
        distinct targets (a :class:`~repro.core.search.TargetSet`): it
        descends only the Rnets holding a target as an interior node,
        crosses the rest on shortcuts, and stops once every target has
        settled.  Cells come back row-major with ``inf`` for unreachable
        pairs; unknown sources *or* targets raise
        :class:`~repro.core.route_overlay.RouteOverlayError` rather than
        silently reporting them unreachable.  ``directory`` only routes
        admission (a named one must be attached): the matrix itself is
        object-free.
        """
        if directory is not None:
            self.directory(directory)
        src = list(sources)
        if not src:
            raise ValueError("need at least one source node")
        tgt = list(targets)
        overlay = self.overlay
        for node in (*src, *tgt):
            if not overlay.has_node(node):
                raise RouteOverlayError(f"node {node} not in Route Overlay")
        distinct = list(dict.fromkeys(tgt))
        goal = TargetSet(self.hierarchy, distinct)
        return od_entries(
            src,
            tgt,
            lambda source: object_sweep(
                overlay, goal, (source,), stats=stats, k=len(distinct)
            ),
        )

    def service_area(
        self,
        node: int,
        breaks: Sequence[float],
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
        stats: Optional[SearchStats] = None,
        abstracts: Optional[AbstractCache] = None,
    ) -> List[ServiceAreaEntry]:
        """Multi-break isochrone: RangeSearch at ``max(breaks)``, with
        every answer tagged by the first break covering it.

        A batch caller passes ``abstracts`` to share Rnet-pruning
        decisions.
        """
        assoc = self.directory(directory)
        cut = normalize_breaks(breaks)
        entries = range_search(
            self.overlay, assoc, node, cut[-1], predicate, stats,
            abstracts=abstracts,
        )
        return bucket_entries(entries, cut)

    def route_knn(
        self,
        path: Iterable[int],
        k: int,
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
        stats: Optional[SearchStats] = None,
        abstracts: Optional[AbstractCache] = None,
    ) -> List[ResultEntry]:
        """In-route kNN: the k best objects by detour distance from a path.

        Every path node seeds one shared frontier at distance 0 — the
        batched multi-source form of kNNSearch, paying each predicate's
        Rnet-pruning decision once for the whole route instead of once
        per source.  The k-cutoff drains ties and resolves them
        canonically by (distance, id).
        """
        seeds = list(path)
        if not seeds:
            raise ValueError("need at least one path node")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        found = sweep_results(
            self.overlay, self.directory(directory), seeds, predicate, stats,
            abstracts=abstracts, k=k, drain_ties=True,
        )
        return sort_result(found)[:k]

    def knn_routed(
        self,
        node: int,
        k: int,
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
    ) -> List[RoutedResult]:
        """kNN with full driving routes to each answer.

        Routes are reconstructed from the traversal's moves, expanding every
        shortcut hop recursively into physical road segments (Lemma 2's
        representation; see :mod:`repro.core.paths`).
        """
        tracer = PathTracer()
        entries = knn_search(
            self.overlay, self.directory(directory), node, k, predicate,
            tracer=tracer,
        )
        return self._materialise(node, entries, tracer)

    def range_routed(
        self,
        node: int,
        radius: float,
        predicate: Predicate = ANY,
        *,
        directory: str = DEFAULT_DIRECTORY,
    ) -> List[RoutedResult]:
        """Range query with full driving routes to each answer."""
        tracer = PathTracer()
        entries = range_search(
            self.overlay, self.directory(directory), node, radius, predicate,
            tracer=tracer,
        )
        return self._materialise(node, entries, tracer)

    def _materialise(
        self, node: int, entries: List[ResultEntry], tracer: PathTracer
    ) -> List[RoutedResult]:
        routed = []
        for entry in entries:
            path, approach = object_path(
                tracer, self.hierarchy, self.shortcuts, node, entry.object_id
            )
            routed.append(RoutedResult(entry, path, approach))
        return routed

    def _dispatch(self, query: object, ctx: BatchContext) -> List[ResultRow]:
        """``execute`` / ``execute_many`` answer through the method the
        query's kind names, passing every kind with a predicate the
        batch's AbstractCache for it: each Rnet's pruning decision is
        paid once per batch rather than once per query.
        """
        method, args = self._bind(query)
        predicate = getattr(query, "predicate", None)
        if predicate is None:
            return method(*args, directory=ctx.directory, stats=ctx.stats)
        assoc = self.directory(ctx.directory)
        abstracts = ctx.cache(
            ("abstracts", predicate), lambda: AbstractCache(assoc, predicate)
        )
        return method(
            *args, directory=ctx.directory, stats=ctx.stats, abstracts=abstracts
        )

    def freeze(
        self,
        *,
        directory: Optional[str] = None,
        directories: Optional[Iterable[str]] = None,
        default: Optional[str] = None,
        backend=None,
    ) -> FrozenRoad:
        """Compile the index + directories into one :class:`FrozenRoad`.

        By default **every** attached Association Directory is compiled
        into the snapshot — the Route Overlay entry arrays are built once
        and shared, each directory adding only its object spans, abstract
        slots and predicate masks.  ``directories`` restricts the
        compiled set; ``directory`` is the single-directory shorthand;
        ``default`` names the directory ``execute(query)`` serves when no
        ``directory=`` is given (default: ``"objects"`` when compiled,
        else the first compiled name).

        The frozen snapshot serves :meth:`knn`/:meth:`range` byte-identical
        to the charged path with zero pager traffic.  It does not track
        later maintenance automatically — feed each update's
        :class:`MaintenanceReport` to :meth:`FrozenRoad.apply` to
        delta-patch the snapshot (all compiled directories at once), or
        re-freeze.

        ``backend`` follows from who reads the snapshot: ``"list"`` (the
        default; pre-boxed, fastest) for this process, ``"shm"``
        (typed buffers in shared-memory segments) for a process pool to
        attach.
        """
        return FrozenRoad.from_road(
            self,
            directory=directory,
            directories=directories,
            default=default,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Network maintenance (Section 5.2)
    # ------------------------------------------------------------------
    def update_edge_distance(self, u: int, v: int, distance: float) -> MaintenanceReport:
        """Change a road segment's distance (filter-and-refresh shortcuts).

        Objects on the segment keep their relative position: every attached
        directory rescales their offsets by the distance ratio.
        """
        old_distance = self.network.edge_distance(u, v)
        report = self.last_report = _change_edge_distance(
            self.network, self.hierarchy, self.shortcuts, self.overlay, u, v, distance
        )
        if old_distance == 0:
            # Degenerate zero-length segment (defensive: loaders reject them
            # today, but stored data may predate that check).  No ratio
            # exists, so re-place every hosted object at offset 0 — the only
            # offset a zero-length edge admits.  The relocation re-derives
            # both endpoint deltas from the *new* distance; a plain rescale
            # would leave the far endpoint's stale delta(o, v) = 0 in place.
            for directory in self._directories.values():
                for obj in directory.objects.on_edge(u, v):
                    directory.relocate(obj.object_id, obj.edge, 0.0)
            return report
        factor = distance / old_distance
        if abs(factor - 1.0) > 1e-12:
            for directory in self._directories.values():
                directory.rescale_edge(u, v, factor)
        return report

    def add_edge(
        self,
        u: int,
        v: int,
        distance: float,
        *,
        coords: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> MaintenanceReport:
        """Open a new road segment (with border promotion when needed)."""
        report = self.last_report = _add_edge(
            self.network, self.hierarchy, self.shortcuts, self.overlay,
            u, v, distance, coords=coords,
        )
        return report

    def remove_edge(self, u: int, v: int) -> MaintenanceReport:
        """Close a road segment (with border demotion when possible).

        Refuses if any attached directory still has objects on the edge —
        relocate or delete them first.
        """
        for name, directory in self._directories.items():
            if directory.objects.on_edge(u, v):
                raise MaintenanceError(
                    f"directory {name!r} has objects on edge ({u}, {v})"
                )
        report = self.last_report = _remove_edge(
            self.network, self.hierarchy, self.shortcuts, self.overlay, u, v
        )
        return report

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def index_size_bytes(self, *, include_directories: bool = True) -> int:
        """On-disk footprint: Route Overlay plus attached directories."""
        size = self.overlay.size_bytes
        if include_directories:
            size += sum(d.size_bytes for d in self._directories.values())
        return size

    def stats(self) -> Dict[str, object]:
        """Shape and size summary for reports."""
        summary: Dict[str, object] = dict(self.hierarchy.stats())
        summary.update(
            shortcuts_total=self.shortcuts.total(),
            shortcuts_stored=self.shortcuts.total(stored=True),
            overlay_pages=self.overlay.page_count,
            overlay_bytes=self.overlay.size_bytes,
            directories={
                name: d.size_bytes for name, d in self._directories.items()
            },
            build_seconds=self.build_report.total_seconds,
        )
        return summary
