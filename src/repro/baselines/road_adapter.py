"""ROAD behind the common engine interface, for the paper's figures.

Wraps :class:`repro.core.framework.ROAD` as a :class:`SearchEngine` so the
evaluation harness can run all four approaches through one code path with
shared I/O accounting: kNN and range queries run on the simulated disk
stack, reproducing the paper's I/O profile.  Every other query kind and
the served ROAD belong to :class:`repro.core.owner.SnapshotOwner` (or a
bare ``ROAD``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.engine import SearchEngine
from repro.core.framework import ROAD
from repro.core.maintenance import MaintenanceReport
from repro.core.object_abstract import AbstractFactory, exact_abstract
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.partition.hierarchy import Bisector
from repro.queries.types import ANY, Predicate, ResultEntry
from repro.storage.pager import PageManager


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
    ) -> None:
        super().__init__(network, pager)
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

    # ------------------------------------------------------------------
    # Queries (the charged path)
    # ------------------------------------------------------------------
    def knn(self, node: int, k: int, predicate: Predicate = ANY) -> List[ResultEntry]:
        return self.road.knn(node, k, predicate)

    def range(
        self, node: int, radius: float, predicate: Predicate = ANY
    ) -> List[ResultEntry]:
        return self.road.range(node, radius, predicate)

    # ------------------------------------------------------------------
    # Maintenance (Figures 15 and 16)
    # ------------------------------------------------------------------
    def insert_object(self, obj: SpatialObject) -> None:
        self.road.insert_object(obj)

    def delete_object(self, object_id: int) -> SpatialObject:
        return self.road.delete_object(object_id).obj

    def update_edge_distance(
        self, u: int, v: int, distance: float
    ) -> MaintenanceReport:
        return self.road.update_edge_distance(u, v, distance)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def index_size_bytes(self) -> int:
        return self.road.index_size_bytes()

    @property
    def objects(self) -> ObjectSet:
        return self.road.directory().objects
