"""Engine construction helpers for the evaluation.

Engines are built through the serving stack: one
:class:`~repro.serving.ServiceConfig` (seeded from the ``REPRO_*``
environment overrides) selects the ROAD serving mode and array
backend, and :meth:`RoadService.build` constructs
the engine behind a service facade.  ``build_engine`` unwraps the bare
engine for the figure harness; ``build_service`` hands back the whole
facade (async front-end included) for serving-shaped callers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines import SearchEngine
from repro.eval.datasets import Dataset, dataset_levels
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet
from repro.objects.placement import place_uniform
from repro.serving import RoadService, ServiceConfig
from repro.storage.pager import PageManager

#: Engine labels in the order the figures list them.
ENGINE_ORDER = ("NetExp", "Euclidean", "DistIdx", "ROAD")


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


def build_service(
    name: str,
    network: RoadNetwork,
    objects: ObjectSet,
    *,
    road_levels: Optional[int] = None,
    road_fanout: int = 4,
    buffer_pages: Optional[int] = None,
    road_mode_override: Optional[str] = None,
    road_backend_override: Optional[str] = None,
    road_directories_override: Optional[Sequence[str]] = None,
) -> RoadService:
    """A :class:`RoadService` over one engine and a private network copy.

    The config comes from :meth:`ServiceConfig.from_env` — the
    ``--engine`` / ``--backend`` / ``--directories`` CLI switches and
    ``REPRO_*`` variables act as overrides — with the explicit
    ``road_*_override`` arguments beating both.
    """
    from repro.serving.service import ENGINE_NAMES

    if name not in ENGINE_NAMES:
        raise KeyError(f"unknown engine {name!r}")
    # The figure harness drives engines directly and never touches the
    # async front-end, so replica sharding is forced off here: a stray
    # REPRO_REPLICAS would otherwise crash baseline builds (replicas need
    # a ROAD) and silently freeze unused snapshots for ROAD ones.
    # Serving callers wanting shards pass ServiceConfig(replicas=N) to
    # RoadService.build themselves.
    overrides: Dict[str, object] = {"engine": name, "replicas": 0}
    if name == "ROAD":
        overrides.update(
            levels=road_levels if road_levels is not None else 4,
            fanout=road_fanout,
        )
    if road_mode_override:
        overrides["mode"] = road_mode_override
    if road_backend_override:
        overrides["backend"] = road_backend_override
    if road_directories_override:
        overrides["directories"] = tuple(road_directories_override)
    config = ServiceConfig.from_env(**overrides)
    private = network.copy()
    pager = PageManager(
        buffer_pages=_buffer_for(network, buffer_pages), name=name
    )
    return RoadService.build(private, objects, config=config, pager=pager)


def build_engine(
    name: str,
    network: RoadNetwork,
    objects: ObjectSet,
    *,
    road_levels: Optional[int] = None,
    road_fanout: int = 4,
    buffer_pages: Optional[int] = None,
    road_mode_override: Optional[str] = None,
    road_backend_override: Optional[str] = None,
    road_directories_override: Optional[Sequence[str]] = None,
) -> SearchEngine:
    """One bare engine over a private copy of the network (no cross-talk).

    The figure harness drives engines directly (cold-cache I/O
    accounting); serving-shaped callers should take
    :func:`build_service`'s facade instead.
    """
    return build_service(
        name,
        network,
        objects,
        road_levels=road_levels,
        road_fanout=road_fanout,
        buffer_pages=buffer_pages,
        road_mode_override=road_mode_override,
        road_backend_override=road_backend_override,
        road_directories_override=road_directories_override,
    ).executor


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
