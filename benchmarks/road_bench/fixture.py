"""The one fixture every road_bench workload runs on.

Paper-scale CA replica (Table 1: 21,048 nodes), four hierarchy levels,
two Association Directories compiled into one snapshot: ``objects`` (100
uniform objects, the paper's default |O|) and ``poi`` (1,000 uniform
objects, Table 1's dense end).  The server subprocess, the harness's
reference service and the traced in-process ladder all build it through
:func:`build_service`, so they differ only in the workload's
``ServiceConfig`` fields.

Network, object and hierarchy seeds are constants here; the benchmark's
``--seed`` drives only the query and maintenance streams.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

NETWORK = "CA"
#: Table 1 size of CA.  Passing it explicitly selects the paper-size
#: replica whatever REPRO_SCALE says (the CA profile's seed and edge
#: ratio are the same at both scales).
FULL_NODES = 21048
#: ``--smoke`` size: the mini-scale CA replica.
SMOKE_NODES = 2100
LEVELS = 4
OBJECTS = 100
OBJECTS_SEED = 1
OBJECT_ATTRS = {"type": ["a", "b", "c"]}
POI = 1000
POI_SEED = 2
DEFAULT_DIRECTORY = "objects"
POI_DIRECTORY = "poi"


def bootstrap_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a tree without ``src/repro`` is an error, not a fallback.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"road_bench: {SRC_DIR}/repro not found — run it from a checkout "
            f"that holds the program's source"
        )
    src = str(SRC_DIR)
    if src in sys.path:
        sys.path.remove(src)
    sys.path.insert(0, src)


def build_dataset(nodes: int = FULL_NODES) -> Any:
    """The network with its diameter (``repro.eval.datasets.Dataset``)."""
    from repro.eval.datasets import load_dataset

    # Maintenance mutates the network in place, so a memoised dataset
    # would carry one run's edge reweighs into the next run's reference.
    load_dataset.cache_clear()
    return load_dataset(NETWORK, num_nodes=nodes)


def build_objects(network: Any) -> Tuple[Any, Any]:
    """The two object sets: (``objects``, ``poi``)."""
    from repro.objects.placement import place_uniform

    objects = place_uniform(
        network, OBJECTS, seed=OBJECTS_SEED, attr_choices=OBJECT_ATTRS
    )
    poi = place_uniform(network, POI, seed=POI_SEED)
    return objects, poi


def service_config(**workload_config: Any) -> Any:
    """``ServiceConfig`` with only the workload's fields off their defaults."""
    from repro.serving import ServiceConfig

    return ServiceConfig(mode="frozen", levels=LEVELS, **workload_config)


def build_service(dataset: Any, **workload_config: Any) -> Any:
    """``RoadService.build`` over the fixture, both directories attached."""
    from repro.serving import RoadService

    objects, poi = build_objects(dataset.network)
    return RoadService.build(
        dataset.network,
        objects,
        config=service_config(**workload_config),
        providers={POI_DIRECTORY: poi},
    )


def describe(nodes: int) -> Dict[str, object]:
    """The fixture's parameters, for result files."""
    return {
        "network": NETWORK,
        "nodes": nodes,
        "levels": LEVELS,
        "directories": {DEFAULT_DIRECTORY: OBJECTS, POI_DIRECTORY: POI},
    }
