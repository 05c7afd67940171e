"""repro — a reproduction of "Fast Object Search on Road Networks" (EDBT'09).

The ROAD framework evaluates location-dependent spatial queries (kNN and
range) over objects on road networks by organising the network as a
hierarchy of regional sub-networks (Rnets) augmented with shortcuts and
object abstracts, letting searches bypass object-free regions.

Public API tour:

* :class:`repro.ROAD` — build the index, attach objects, query, maintain.
* :mod:`repro.graph` — road-network model, generators, shortest paths.
* :mod:`repro.objects` — spatial objects and placement.
* :mod:`repro.queries` — LDSQ types (kNN / range, attribute predicates).
* :mod:`repro.baselines` — NetExp, Euclidean and Distance-Index engines.
* :mod:`repro.serving` — the unified serving API: the
  :class:`RoadService` facade (typed :class:`ServiceConfig`, async
  admission-batched front-end, sharded frozen replicas) over the
  query-dispatch protocol every engine implements
  (:mod:`repro.core.dispatch`).
* :mod:`repro.eval` — the experiment harness reproducing the paper's
  figures.
"""

from repro.core.dispatch import (
    QueryExecutor,
    UnknownDirectoryError,
    UnsupportedQueryError,
)
from repro.core.framework import ROAD, BuildReport, RoutedResult
from repro.core.frozen import FrozenRoad, FrozenRoadError
from repro.core.serialize import load_road, save_road
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import (
    ANY,
    AggregateKNNQuery,
    KNNQuery,
    Predicate,
    RangeQuery,
    ResultEntry,
)

__version__ = "1.12.0"

__all__ = [
    "ANY",
    "AggregateKNNQuery",
    "BuildReport",
    "FrozenRoad",
    "FrozenRoadError",
    "KNNQuery",
    "ObjectSet",
    "Predicate",
    "QueryExecutor",
    "ROAD",
    "RangeQuery",
    "ResultEntry",
    "RoadNetwork",
    "RoadService",
    "RoutedResult",
    "ServiceConfig",
    "SpatialObject",
    "UnknownDirectoryError",
    "UnsupportedQueryError",
    "__version__",
    "load_road",
    "save_road",
]


def __getattr__(name: str) -> object:
    # Resolved on first access: ``import repro.core...`` loads no serving.
    if name in ("RoadService", "ServiceConfig"):
        from repro import serving

        return getattr(serving, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
