"""The four compared engines: ROAD and the Section-2 baselines."""

from repro.baselines.distance_index import DistanceIndexEngine
from repro.baselines.engine import EngineError, SearchEngine
from repro.baselines.euclidean import EuclideanEngine
from repro.baselines.network_expansion import NetworkExpansionEngine
from repro.baselines.road_adapter import ROADEngine

#: Build order used across the evaluation figures.
ALL_ENGINES = (
    NetworkExpansionEngine,
    EuclideanEngine,
    DistanceIndexEngine,
    ROADEngine,
)

__all__ = [
    "ALL_ENGINES",
    "DistanceIndexEngine",
    "EngineError",
    "EuclideanEngine",
    "NetworkExpansionEngine",
    "ROADEngine",
    "SearchEngine",
]
