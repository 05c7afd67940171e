"""ROAD behind the common engine interface.

Wraps :class:`repro.core.framework.ROAD` as a :class:`SearchEngine` so the
evaluation harness can run all four approaches through one code path with
shared I/O accounting.

Two serving modes are supported:

* ``"charged"`` (default) — every query pays the simulated disk stack,
  reproducing the paper's I/O profile;
* ``"frozen"`` — queries run against a compiled
  :class:`~repro.core.frozen.FrozenRoad` snapshot (zero pager traffic).

In frozen mode each update's
:class:`~repro.core.maintenance.MaintenanceReport` is delta-applied to the
live snapshot (:meth:`FrozenRoad.apply`): only the dirty CSR spans are
rewritten, falling back to a full recompile on structural changes, so
update cost scales with the perturbation, not the network.  The snapshot
always compiles **every** attached directory — what the engine serves is
what is attached to its ROAD, in both modes — so attaching or detaching
one drops it, to be lazily re-frozen on the next query.

``stats()`` surfaces the last report plus cumulative maintenance counters
(patches applied, fallbacks, invalidations, freezes).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.baselines.engine import EngineError, SearchEngine
from repro.core.framework import ROAD
from repro.core.frozen import FrozenRoad
from repro.core.maintenance import MaintenanceReport
from repro.core.object_abstract import AbstractFactory, exact_abstract
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.partition.hierarchy import Bisector
from repro.queries.types import ANY, Predicate, ResultEntry, ResultRow
from repro.serving.dispatch import (
    DEFAULT_DIRECTORY,
    BatchContext,
    UnsupportedQueryError,
)
from repro.storage.pager import PageManager

#: Valid serving modes for :class:`ROADEngine`.
ROAD_MODES = ("charged", "frozen")

#: Environment override for the mode (``ServiceConfig.from_env`` and the
#: figure harness's ``build_engine`` read it).
MODE_ENV = "REPRO_ENGINE"


class ROADEngine(SearchEngine):
    """The paper's system as a pluggable engine (Table 1 defaults: p=4)."""

    name = "ROAD"

    def __init__(
        self,
        network: RoadNetwork,
        objects: ObjectSet,
        pager: Optional[PageManager] = None,
        *,
        levels: int = 4,
        fanout: int = 4,
        bisector: Optional[Bisector] = None,
        partition_tree=None,
        reduce_shortcuts: bool = True,
        abstract_factory: AbstractFactory = exact_abstract,
        mode: str = "charged",
        providers: Optional[Mapping[str, ObjectSet]] = None,
    ) -> None:
        if mode not in ROAD_MODES:
            raise EngineError(
                f"mode must be one of {ROAD_MODES}, got {mode!r}"
            )
        super().__init__(network, pager)
        self.mode = mode
        #: The abstract factory every directory of this engine uses —
        #: late-attached providers default to it, so pruning behaviour
        #: never depends on *when* a provider was attached.
        self._abstract_factory = abstract_factory
        self.road = self._timed(
            ROAD.build,
            network,
            levels=levels,
            fanout=fanout,
            bisector=bisector,
            partition_tree=partition_tree,
            reduce_shortcuts=reduce_shortcuts,
            pager=self.pager,
        )
        self._timed(
            self.road.attach_objects, objects, abstract_factory=abstract_factory
        )
        # Additional content providers, attached as named directories on
        # the same Route Overlay (``objects`` stays the default).
        for name, provider_objects in (providers or {}).items():
            self._timed(
                self.road.attach_objects,
                provider_objects,
                name=name,
                abstract_factory=abstract_factory,
            )
        self._frozen: Optional[FrozenRoad] = None
        self._last_report: Optional[MaintenanceReport] = None
        self._maintenance_counters: Dict[str, int] = {
            "updates": 0,           # maintenance calls seen by the engine
            "patches_applied": 0,   # snapshot delta-patches that stuck
            "patch_fallbacks": 0,   # patches that degraded to a recompile
            "invalidations": 0,     # snapshots dropped (attach/detach)
            "freezes": 0,           # full compiles (initial, lazy, fallback)
        }
        if mode == "frozen":
            self._timed(self._refreeze)

    # ------------------------------------------------------------------
    # Frozen snapshot lifecycle
    # ------------------------------------------------------------------
    def _refreeze(self) -> FrozenRoad:
        # Every attached provider, in one snapshot sharing the entry
        # arrays: a refreeze can never drop a directory the road serves.
        # The engine reads it in this process, so it is a list snapshot.
        self._frozen = self.road.freeze()
        self._maintenance_counters["freezes"] += 1
        return self._frozen

    def _serving(self):
        """The object queries run against in the configured mode."""
        if self.mode == "frozen":
            return self._frozen if self._frozen is not None else self._refreeze()
        return self.road

    def invalidate_frozen(self) -> None:
        """Drop the snapshot (directory set changed); re-frozen on next query."""
        if self._frozen is not None:
            self._maintenance_counters["invalidations"] += 1
        self._frozen = None

    def _maintain(self, report: MaintenanceReport) -> MaintenanceReport:
        """Patch the live snapshot with one update's report."""
        self._last_report = report
        self._maintenance_counters["updates"] += 1
        if self.mode != "frozen" or self._frozen is None:
            return report
        outcome = self._frozen.apply(report, self.road)
        if outcome == "patched":
            self._maintenance_counters["patches_applied"] += 1
        else:
            self._maintenance_counters["patch_fallbacks"] += 1
            self._maintenance_counters["freezes"] += 1
        return report

    @property
    def frozen(self) -> Optional[FrozenRoad]:
        """The current snapshot.

        None in charged mode and after ``attach_objects`` /
        ``detach_objects`` dropped it (until the next query lazily
        re-freezes).  Across updates the same snapshot object stays live
        — it is delta-patched, never dropped.
        """
        return self._frozen

    @property
    def last_report(self) -> Optional[MaintenanceReport]:
        """The report of the most recent maintenance operation."""
        return self._last_report

    # ------------------------------------------------------------------
    # Directory management (multi-provider serving)
    # ------------------------------------------------------------------
    def attach_objects(
        self,
        objects: ObjectSet,
        *,
        name: str,
        abstract_factory: Optional[AbstractFactory] = None,
    ):
        """Attach another provider's object set as a named directory.

        ``abstract_factory`` defaults to the factory the engine was
        constructed with, so late-attached providers prune exactly like
        construction-time ones.  In frozen mode the live snapshot is
        invalidated so the next query re-freezes with the new directory
        included.
        """
        if abstract_factory is None:
            abstract_factory = self._abstract_factory
        directory = self.road.attach_objects(
            objects, name=name, abstract_factory=abstract_factory
        )
        self.invalidate_frozen()
        return directory

    def detach_objects(self, name: str) -> None:
        """Detach a directory; frozen snapshots stop serving it.

        The default directory cannot be detached through the engine:
        the charged path would start raising on directory-less queries
        while a re-frozen snapshot would silently fall back to another
        provider — the modes must never answer the same query
        differently.
        """
        if name == DEFAULT_DIRECTORY:
            raise EngineError(
                f"the default directory {DEFAULT_DIRECTORY!r} cannot be "
                f"detached from the engine (charged and frozen modes "
                f"would diverge on directory-less queries)"
            )
        self.road.detach_objects(name)
        self.invalidate_frozen()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(self, node: int, k: int, predicate: Predicate = ANY) -> List[ResultEntry]:
        return self._serving().knn(node, k, predicate)

    def range(
        self, node: int, radius: float, predicate: Predicate = ANY
    ) -> List[ResultEntry]:
        return self._serving().range(node, radius, predicate)

    def aggregate_knn(
        self,
        nodes: Sequence[int],
        k: int,
        agg: str = "sum",
        predicate: Predicate = ANY,
    ) -> List[ResultEntry]:
        """Aggregate kNN in the configured serving mode."""
        return self._serving().aggregate_knn(nodes, k, agg, predicate)

    @property
    def directory_names(self) -> List[str]:
        """The road's attached directories — exactly what a snapshot
        compiles, so both modes serve the same set (and asking never
        lazily freezes).  The default stays the inherited ``"objects"``:
        it is attached at construction and cannot be detached.
        """
        return self.road.directory_names

    def supports(self, query: object) -> bool:
        """Every kind the road serves (both modes serve the same set)."""
        return self.road.supports(query)

    def _dispatch(self, query: object, ctx: BatchContext) -> List[ResultRow]:
        # Forward to the configured serving object, which re-validates
        # the directory and answers through its own method.
        if not self.supports(query):
            raise UnsupportedQueryError(self, query)
        return self._serving().execute(
            query, directory=ctx.directory, stats=ctx.stats
        )

    def execute_many(
        self,
        queries: Sequence,
        *,
        directory: Optional[str] = None,
        stats=None,
    ) -> List[List[ResultRow]]:
        """Batch entry point: forwarded wholesale to the serving object.

        Forwarding the whole batch (rather than looping the inherited
        per-query dispatch) lets the charged path share its per-predicate
        AbstractCaches across the batch exactly as before.
        """
        return self._serving().execute_many(
            queries, directory=directory, stats=stats
        )

    # ------------------------------------------------------------------
    # Maintenance (patched into any frozen snapshot)
    # ------------------------------------------------------------------
    def insert_object(
        self, obj: SpatialObject, *, directory: str = DEFAULT_DIRECTORY
    ) -> None:
        self._maintain(self.road.insert_object(obj, directory=directory))

    def delete_object(
        self, object_id: int, *, directory: str = DEFAULT_DIRECTORY
    ) -> SpatialObject:
        report = self._maintain(
            self.road.delete_object(object_id, directory=directory)
        )
        return report.obj

    def update_edge_distance(
        self, u: int, v: int, distance: float
    ) -> MaintenanceReport:
        return self._maintain(self.road.update_edge_distance(u, v, distance))

    def update_object_attrs(
        self, object_id: int, attrs, *, directory: str = DEFAULT_DIRECTORY
    ) -> MaintenanceReport:
        return self._maintain(
            self.road.update_object_attrs(object_id, attrs, directory=directory)
        )

    def add_edge(
        self, u: int, v: int, distance: float, *, coords=None
    ) -> MaintenanceReport:
        """Open a road segment, reconciling any frozen snapshot."""
        return self._maintain(
            self.road.add_edge(u, v, distance, coords=coords)
        )

    def remove_edge(self, u: int, v: int) -> MaintenanceReport:
        """Close a road segment, reconciling any frozen snapshot."""
        return self._maintain(self.road.remove_edge(u, v))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Index shape plus the serving/maintenance lifecycle state."""
        summary = self.road.stats()
        summary.update(
            mode=self.mode,
            maintenance=dict(self._maintenance_counters),
            last_report=self._last_report,
        )
        if self._frozen is not None:
            summary["frozen_backend"] = self._frozen.backend
            summary["frozen_memory"] = self._frozen.memory_stats()
            summary["frozen_directories"] = self._frozen.directory_names
        return summary

    @property
    def index_size_bytes(self) -> int:
        return self.road.index_size_bytes()

    @property
    def objects(self) -> ObjectSet:
        return self.road.directory().objects
