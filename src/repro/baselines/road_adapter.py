"""ROAD behind the common engine interface — and the served ROAD's owner.

Wraps :class:`repro.core.framework.ROAD` as a :class:`SearchEngine` so the
evaluation harness can run all four approaches through one code path with
shared I/O accounting.  ``mode="charged"`` (default) runs every query on
the simulated disk stack, reproducing the paper's I/O profile;
``mode="frozen"`` runs them on a compiled ``list``
:class:`~repro.core.frozen.FrozenRoad` snapshot (zero pager traffic) that
exists from construction on.

As the :class:`~repro.core.dispatch.RoadOwner` a
:class:`~repro.serving.RoadService` is built over, the engine is the
only code holding the ROAD.  Each :meth:`ROADEngine.write` updates its
snapshot before it returns: a maintenance report is delta-applied
(:meth:`FrozenRoad.apply` rewrites only the dirty CSR spans,
recompiling on structural changes), and attaching or detaching a
directory re-freezes at once, since the snapshot compiles **every**
attached directory.  Snapshots for other readers come from
:meth:`ROADEngine.freeze`.  ``stats()`` surfaces the last report plus
cumulative counters (patches, fallbacks, freezes).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.baselines.engine import EngineError, SearchEngine
from repro.core.dispatch import (
    DEFAULT_DIRECTORY,
    BatchContext,
    RoadOwner,
    UnsupportedQueryError,
)
from repro.core.framework import ROAD
from repro.core.frozen import FrozenRoad
from repro.core.maintenance import MaintenanceReport
from repro.core.object_abstract import AbstractFactory, exact_abstract
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.partition.hierarchy import Bisector
from repro.queries.types import ANY, Predicate, ResultEntry, ResultRow
from repro.queries.writes import DeleteObject, InsertObject, UpdateEdgeDistance
from repro.storage.pager import PageManager

#: Valid serving modes for :class:`ROADEngine`.
ROAD_MODES = ("charged", "frozen")

#: Environment override for the mode (``ServiceConfig.from_env`` and the
#: figure harness's ``build_engine`` read it).
MODE_ENV = "REPRO_ENGINE"


class ROADEngine(SearchEngine, RoadOwner):
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
        self._maintenance_counters: Dict[str, int] = {
            "updates": 0,           # maintenance calls seen by the engine
            "patches_applied": 0,   # snapshot delta-patches that stuck
            "patch_fallbacks": 0,   # patches that degraded to a recompile
            "freezes": 0,           # full compiles (initial, re-freeze, fallback)
        }
        self._serving = self.road
        if mode == "frozen":
            self._timed(self._refreeze)

    # ------------------------------------------------------------------
    # Frozen snapshot lifecycle
    # ------------------------------------------------------------------
    def freeze(self, *, backend=None) -> FrozenRoad:
        """A fresh snapshot of every attached directory, for another
        reader to patch from the reports (not tracked here)."""
        return self.road.freeze(backend=backend)

    def _refreeze(self) -> None:
        """Replace the snapshot with one compiling every attached
        directory, so it never lacks one the road serves."""
        self._frozen = self._serving = self.road.freeze()
        self._maintenance_counters["freezes"] += 1

    @property
    def frozen(self) -> Optional[FrozenRoad]:
        """The current snapshot: ``None`` in charged mode, never in
        frozen mode.  Across updates the same snapshot object stays live
        (delta-patched); attach and detach replace it."""
        return self._frozen

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
        construction-time ones.  In frozen mode the snapshot is
        re-frozen with the new directory included.
        """
        if abstract_factory is None:
            abstract_factory = self._abstract_factory
        directory = self.road.attach_objects(
            objects, name=name, abstract_factory=abstract_factory
        )
        if self.mode == "frozen":
            self._refreeze()
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
        if self.mode == "frozen":
            self._refreeze()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(self, node: int, k: int, predicate: Predicate = ANY) -> List[ResultEntry]:
        return self._serving.knn(node, k, predicate)

    def range(
        self, node: int, radius: float, predicate: Predicate = ANY
    ) -> List[ResultEntry]:
        return self._serving.range(node, radius, predicate)

    def aggregate_knn(
        self,
        nodes: Sequence[int],
        k: int,
        agg: str = "sum",
        predicate: Predicate = ANY,
    ) -> List[ResultEntry]:
        """Aggregate kNN in the configured serving mode."""
        return self._serving.aggregate_knn(nodes, k, agg, predicate)

    @property
    def directory_names(self) -> List[str]:
        """The road's attached directories — exactly what a snapshot
        compiles, so both modes serve the same set.  The default stays the inherited ``"objects"``:
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
        return self._serving.execute(
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
        return self._serving.execute_many(
            queries, directory=directory, stats=stats
        )

    # ------------------------------------------------------------------
    # Maintenance (patched into any frozen snapshot)
    # ------------------------------------------------------------------
    def write(self, w: object) -> MaintenanceReport:
        """Apply one declared write to the road; patch the snapshot with
        its report."""
        report = self.last_report = self.road.write(w)
        self._maintenance_counters["updates"] += 1
        if self._frozen is None:
            return report
        outcome = self._frozen.apply(report, self.road)
        if outcome == "patched":
            self._maintenance_counters["patches_applied"] += 1
        else:
            self._maintenance_counters["patch_fallbacks"] += 1
            self._maintenance_counters["freezes"] += 1
        return report

    def insert_object(
        self, obj: SpatialObject, *, directory: str = DEFAULT_DIRECTORY
    ) -> None:
        self.write(InsertObject(obj, directory))

    def delete_object(
        self, object_id: int, *, directory: str = DEFAULT_DIRECTORY
    ) -> SpatialObject:
        return self.write(DeleteObject(object_id, directory)).obj

    def update_edge_distance(
        self, u: int, v: int, distance: float
    ) -> MaintenanceReport:
        return self.write(UpdateEdgeDistance(u, v, distance))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Index shape plus the serving/maintenance lifecycle state."""
        summary = self.road.stats()
        summary.update(
            mode=self.mode,
            maintenance=dict(self._maintenance_counters),
            last_report=self.last_report,
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
