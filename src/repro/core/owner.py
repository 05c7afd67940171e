"""The served ROAD's owner: one live ROAD and the snapshot it serves from.

:meth:`repro.serving.RoadService.build` wraps a :class:`SnapshotOwner`,
the only code holding the ROAD.  Every query runs on its compiled
``list`` :class:`~repro.core.frozen.FrozenRoad` (zero pager traffic),
which exists from construction on.  Each :meth:`SnapshotOwner.write`
patches that snapshot from the write's report before it returns
(:meth:`FrozenRoad.apply`, recompiling on structural changes), and an
attach or detach re-freezes it, since it compiles **every** attached
directory.  Snapshots for other readers come from :meth:`SnapshotOwner.freeze`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.association_directory import DirectoryError
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
from repro.objects.model import ObjectSet
from repro.queries.types import ResultRow
from repro.storage.pager import PageManager


class SnapshotOwner(RoadOwner):
    """A ROAD served from its own ``list`` snapshot, patched per write."""

    def __init__(
        self, road: ROAD, *, abstract_factory: AbstractFactory = exact_abstract
    ) -> None:
        self.road = road
        #: The abstract factory late-attached providers default to, so
        #: pruning behaviour never depends on *when* one was attached.
        self._abstract_factory = abstract_factory
        self._counters: Dict[str, int] = {
            "updates": 0,           # writes seen by the owner
            "patches_applied": 0,   # snapshot delta-patches that stuck
            "patch_fallbacks": 0,   # patches that degraded to a recompile
            "freezes": 0,           # full compiles (initial, re-freeze, fallback)
        }
        self._refreeze()

    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        objects: ObjectSet,
        pager: Optional[PageManager] = None,
        *,
        abstract_factory: AbstractFactory = exact_abstract,
        providers: Optional[Mapping[str, ObjectSet]] = None,
        **build_kwargs: Any,
    ) -> "SnapshotOwner":
        """Build the ROAD (``build_kwargs``: :meth:`ROAD.build`'s knobs),
        attach ``objects`` as the default directory and each of
        ``providers`` under its name, then freeze it."""
        road = ROAD.build(network, pager=pager, **build_kwargs)
        road.attach_objects(objects, abstract_factory=abstract_factory)
        for name, provider in (providers or {}).items():
            road.attach_objects(provider, name=name, abstract_factory=abstract_factory)
        return cls(road, abstract_factory=abstract_factory)

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> FrozenRoad:
        """The snapshot queries run on.  Across writes the same object
        stays live (delta-patched); attach and detach replace it."""
        return self._frozen

    def freeze(self, *, backend: Optional[str] = None) -> FrozenRoad:
        """A fresh snapshot of every attached directory, for another
        reader to patch from the reports (not tracked here)."""
        return self.road.freeze(backend=backend)

    def _refreeze(self) -> None:
        """Replace the snapshot with one compiling every attached
        directory, so it never lacks one the road serves."""
        self._frozen = self.road.freeze()
        self._counters["freezes"] += 1

    @property
    def network(self) -> RoadNetwork:
        return self.road.network

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
        """Attach another provider's object set as a named directory and
        re-freeze.  ``abstract_factory`` defaults to the construction-time
        one, so late-attached providers prune like the first ones."""
        if abstract_factory is None:
            abstract_factory = self._abstract_factory
        directory = self.road.attach_objects(
            objects, name=name, abstract_factory=abstract_factory
        )
        self._refreeze()
        return directory

    def detach_objects(self, name: str) -> None:
        """Detach a directory and re-freeze without it.

        The default directory is refused: a snapshot compiled without it
        would serve directory-less queries from another provider, where
        the charged ROAD raises.
        """
        if name == DEFAULT_DIRECTORY:
            raise DirectoryError(
                f"the default directory {DEFAULT_DIRECTORY!r} cannot be "
                f"detached from the owner (its snapshot would answer "
                f"directory-less queries from another provider)"
            )
        self.road.detach_objects(name)
        self._refreeze()

    @property
    def directory_names(self) -> List[str]:
        """The road's attached directories: exactly what the snapshot
        compiles."""
        return self.road.directory_names

    # ------------------------------------------------------------------
    # Queries: all of them on the snapshot
    # ------------------------------------------------------------------
    def has_node(self, node: int) -> bool:
        return self.road.has_node(node)

    def supports(self, query: object) -> bool:
        return self._frozen.supports(query)

    def _dispatch(self, query: object, ctx: BatchContext) -> List[ResultRow]:
        if not self.supports(query):
            raise UnsupportedQueryError(self, query)
        return self._frozen.execute(query, directory=ctx.directory, stats=ctx.stats)

    def execute_many(
        self,
        queries: Sequence,
        *,
        directory: Optional[str] = None,
        stats=None,
    ) -> List[List[ResultRow]]:
        """The whole batch in one call on the snapshot, which memoises its
        predicate state across it."""
        return self._frozen.execute_many(queries, directory=directory, stats=stats)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, w: object) -> MaintenanceReport:
        """Apply one declared write to the road; patch the snapshot with
        its report."""
        report = self.last_report = self.road.write(w)
        self._counters["updates"] += 1
        if self._frozen.apply(report, self.road) == "patched":
            self._counters["patches_applied"] += 1
        else:
            self._counters["patch_fallbacks"] += 1
            self._counters["freezes"] += 1
        return report

    def stats(self) -> Dict[str, object]:
        """Index shape plus the snapshot and maintenance state."""
        summary = self.road.stats()
        summary.update(
            maintenance=dict(self._counters),
            last_report=self.last_report,
            frozen_backend=self._frozen.backend,
            frozen_memory=self._frozen.memory_stats(),
            frozen_directories=self._frozen.directory_names,
        )
        return summary
