"""Engine construction helpers for the evaluation.

``build_engine`` constructs the paper's four approaches directly, each
over a private network copy and its own pager.  ROAD runs charged, on
the simulated disk stack the figures count pages on; the compiled
snapshot is the serving tier's (:class:`repro.core.owner.SnapshotOwner`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines import ALL_ENGINES, SearchEngine
from repro.eval.datasets import Dataset, dataset_levels
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet
from repro.objects.placement import place_uniform
from repro.storage.pager import PageManager

_ENGINES = {engine.name: engine for engine in ALL_ENGINES}

#: Engine labels in the order the figures list them.
ENGINE_ORDER = tuple(_ENGINES)


def make_objects(
    network: RoadNetwork, count: int, *, seed: int = 0
) -> ObjectSet:
    """The evaluation's object workload: uniform over the network."""
    return place_uniform(network, count, seed=seed)


def _buffer_for(network: RoadNetwork, buffer_pages: Optional[int]) -> int:
    """Buffer size preserving the paper's buffer:data ratio (see config)."""
    if buffer_pages is not None:
        return buffer_pages
    from repro.eval.config import profiles

    for prof in profiles().values():
        if abs(prof.num_nodes - network.num_nodes) <= prof.num_nodes * 0.2:
            return prof.buffer_pages
    return 50


def build_engine(
    name: str,
    network: RoadNetwork,
    objects: ObjectSet,
    *,
    road_levels: Optional[int] = None,
    buffer_pages: Optional[int] = None,
) -> SearchEngine:
    """One bare engine over a private copy of the network (no cross-talk).

    The figure harness drives engines directly (cold-cache I/O
    accounting).
    """
    if name not in _ENGINES:
        raise KeyError(f"unknown engine {name!r}")
    pager = PageManager(
        buffer_pages=_buffer_for(network, buffer_pages), name=name
    )
    road_knobs: Dict[str, object] = {}
    if name == "ROAD":
        road_knobs = {"levels": road_levels if road_levels is not None else 4}
    return _ENGINES[name](network.copy(), objects, pager, **road_knobs)


def build_engines(
    dataset: Dataset,
    objects: ObjectSet,
    *,
    engines: Sequence[str] = ENGINE_ORDER,
    road_levels: Optional[int] = None,
) -> Dict[str, SearchEngine]:
    """All requested engines over one dataset + object set."""
    from repro.eval.config import profile

    levels = road_levels if road_levels is not None else dataset_levels(dataset.name)
    buffer_pages = profile(dataset.name).buffer_pages
    return {
        name: build_engine(
            name,
            dataset.network,
            objects,
            road_levels=levels,
            buffer_pages=buffer_pages,
        )
        for name in engines
    }
