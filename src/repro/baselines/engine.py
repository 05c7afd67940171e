"""Common search-engine interface.

Section 6 compares four approaches — ROAD, network expansion, the Euclidean
bound, and the Distance Index — on identical workloads, storage (CCAM,
4 KB pages, LRU-50 buffer) and metrics.  :class:`SearchEngine` is the
interface all four implement here, so the evaluation harness can treat them
uniformly: build, query, update, and account I/O through one pager.
"""

from __future__ import annotations

import time
from abc import abstractmethod
from typing import List, Optional

from repro.core.dispatch import BatchContext, QueryExecutor
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import ANY, Predicate, ResultEntry, ResultRow
from repro.storage.pager import IOStats, PageManager


class EngineError(Exception):
    """Raised when an engine cannot serve a request (e.g. metric misuse)."""


class SearchEngine(QueryExecutor):
    """One LDSQ evaluation approach over a network + object set.

    As a :class:`~repro.core.dispatch.QueryExecutor`, every subclass gets
    ``execute`` / ``execute_many`` — and with them the batch server
    front-end — for free from the two abstract query methods below.
    The Section-2 baselines have no multi-source expansion, so any other
    query kind (aggregate kNN, ...) raises a typed
    ``UnsupportedQueryError`` naming the engine.
    """

    #: Short label used in result tables ("ROAD", "NetExp", ...).
    name: str = "engine"

    def __init__(self, network: RoadNetwork, pager: Optional[PageManager] = None):
        self.network = network
        self.pager = pager if pager is not None else PageManager(name=self.name)
        self.build_seconds = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abstractmethod
    def knn(self, node: int, k: int, predicate: Predicate = ANY) -> List[ResultEntry]:
        """The k nearest matching objects by network distance."""

    @abstractmethod
    def range(
        self, node: int, radius: float, predicate: Predicate = ANY
    ) -> List[ResultEntry]:
        """All matching objects within network distance ``radius``."""

    def has_node(self, node: int) -> bool:
        return self.network.has_node(node)

    def _dispatch(self, query: object, ctx: BatchContext) -> List[ResultRow]:
        # The baseline query methods take neither a directory (they serve
        # the default one only) nor SearchStats.
        method, args = self._bind(query)
        return method(*args)

    # ------------------------------------------------------------------
    # Maintenance (Figures 15 and 16)
    # ------------------------------------------------------------------
    @abstractmethod
    def insert_object(self, obj: SpatialObject) -> None:
        """Add one object to the index."""

    @abstractmethod
    def delete_object(self, object_id: int) -> SpatialObject:
        """Remove one object from the index."""

    @abstractmethod
    def update_edge_distance(self, u: int, v: int, distance: float) -> None:
        """Propagate an edge-distance change into the index."""

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def index_size_bytes(self) -> int:
        """Total on-disk footprint of this engine's index structures."""

    @property
    @abstractmethod
    def objects(self) -> ObjectSet:
        """The engine's authoritative object collection."""

    def reset_io(self) -> None:
        """Empty the buffer and zero the counters (cold-cache queries)."""
        self.pager.drop_cache()
        self.pager.reset_stats()

    def io_snapshot(self) -> IOStats:
        """Current I/O counters."""
        return self.pager.stats.snapshot()

    def _timed(self, fn, *args, **kwargs):
        """Run a build step, accumulating wall time into build_seconds."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.build_seconds += time.perf_counter() - start
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.network.num_nodes}, "
            f"objects={len(self.objects)})"
        )
