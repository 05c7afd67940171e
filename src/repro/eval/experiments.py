"""Per-figure experiment definitions (Section 6).

One function per table/figure of the evaluation; each builds the relevant
engines, runs the paper's workload shape, and returns an
:class:`~repro.eval.reporting.ExperimentResult` whose rows mirror the
figure's series.  The benchmark harness in ``benchmarks/`` drives these and
writes the rendered tables to ``benchmarks/results/`` (not tracked): no
committed file yet sets them beside the paper's figures.

All functions take explicit size knobs so the default run finishes in
minutes on the mini-scale datasets while ``REPRO_SCALE=paper`` reproduces
the full-size setting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.eval.config import (
    DEFAULT_K,
    DEFAULT_OBJECTS,
    DEFAULT_RANGE_FRACTION,
    K_VALUES,
    OBJECT_COUNTS,
    RANGE_FRACTIONS,
    queries_per_run,
    table1_rows,
)
from repro.eval.datasets import dataset_levels, load_dataset
from repro.eval.metrics import measure_query, run_workload, time_call
from repro.eval.reporting import ExperimentResult
from repro.eval.runner import ENGINE_ORDER, build_engine, build_engines, make_objects
from repro.graph.generators import LegacyRandomState
from repro.objects.model import SpatialObject
from repro.queries.types import KNNQuery
from repro.queries.workload import knn_workload, range_workload

MB = 1024 * 1024


def table1_parameters() -> ExperimentResult:
    """Table 1: the evaluation parameter sheet."""
    result = ExperimentResult(
        "table1", "Evaluation parameters (paper values; * = default)",
        ["parameter", "values"],
    )
    for row in table1_rows():
        result.add_row(**row)
    return result


def fig11_illustration(
    *, network: str = "CA", num_objects: int = 5, k: int = 3, seed: int = 0
) -> ExperimentResult:
    """Figure 11: anatomy of one 3NN query — time and I/O per approach."""
    dataset = load_dataset(network)
    objects = make_objects(dataset.network, num_objects, seed=seed)
    engines = build_engines(dataset, objects)
    rng = LegacyRandomState(seed)
    nodes = sorted(dataset.network.node_ids())
    query = KNNQuery(nodes[rng.randint(len(nodes))], k)

    result = ExperimentResult(
        "fig11",
        f"{k}NN query anatomy on {network} (|O|={num_objects})",
        ["engine", "time_ms", "io_pages", "answers"],
    )
    reference = None
    for name in ENGINE_ORDER:
        m = measure_query(engines[name], query)
        result.add_row(
            engine=name, time_ms=m.elapsed_ms, io_pages=m.io_reads,
            answers=m.result_size,
        )
        answer = [e.object_id for e in engines[name].execute(query)]
        if reference is None:
            reference = answer
        elif answer != reference:
            result.note(f"{name} returned a different answer set: {answer}")
    result.note("paper: ROAD 475ms/230 pages beats NetExp 1203/297, "
                "Euclidean 8422/1729, DistIdx 625/285")
    return result


def fig13_index_vs_objects(
    *,
    network: str = "CA",
    object_counts: Sequence[int] = OBJECT_COUNTS,
    engines: Sequence[str] = ENGINE_ORDER,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 13: index construction time and size vs object cardinality."""
    dataset = load_dataset(network)
    result = ExperimentResult(
        "fig13",
        f"Index construction vs |O| on {network}",
        ["engine", "objects", "build_s", "size_mb"],
    )
    for count in object_counts:
        objects = make_objects(dataset.network, count, seed=seed)
        for name in engines:
            engine, _ = time_call(
                build_engine, name, dataset.network, objects,
                road_levels=dataset_levels(network),
            )
            result.add_row(
                engine=name,
                objects=count,
                build_s=engine.build_seconds,
                size_mb=engine.index_size_bytes / MB,
            )
    result.note("paper: NetExp/Euclidean/ROAD flat in |O|; DistIdx grows "
                "drastically (242MB at |O|=1000 on CA)")
    return result


def fig14_index_vs_network(
    *,
    networks: Sequence[str] = ("CA", "NA", "SF"),
    num_objects: int = DEFAULT_OBJECTS,
    engines: Sequence[str] = ENGINE_ORDER,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 14: index construction time and size vs network."""
    result = ExperimentResult(
        "fig14",
        f"Index construction vs network (|O|={num_objects})",
        ["engine", "network", "build_s", "size_mb"],
    )
    for network in networks:
        dataset = load_dataset(network)
        objects = make_objects(dataset.network, num_objects, seed=seed)
        for name in engines:
            engine = build_engine(
                name, dataset.network, objects,
                road_levels=dataset_levels(network),
            )
            result.add_row(
                engine=name,
                network=network,
                build_s=engine.build_seconds,
                size_mb=engine.index_size_bytes / MB,
            )
    result.note("paper: DistIdx >4h / >210MB on NA+SF; ROAD ~25% of its "
                "build time and ~33% of its size on SF")
    return result


def fig15_object_update(
    *,
    networks: Sequence[str] = ("CA", "NA", "SF"),
    num_objects: int = DEFAULT_OBJECTS,
    trials: int = 5,
    engines: Sequence[str] = ENGINE_ORDER,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 15: object deletion/insertion time per network.

    The paper's protocol: delete a randomly picked object, re-add it at a
    random location; average over the trials.
    """
    result = ExperimentResult(
        "fig15",
        f"Object update time (|O|={num_objects}, {trials} trials)",
        ["engine", "network", "delete_s", "insert_s"],
    )
    for network in networks:
        dataset = load_dataset(network)
        objects = make_objects(dataset.network, num_objects, seed=seed)
        built = build_engines(dataset, objects, engines=engines)
        edges = sorted((u, v) for u, v, _ in dataset.network.edges())
        rng = LegacyRandomState(seed)
        for name in engines:
            engine = built[name]
            delete_times: List[float] = []
            insert_times: List[float] = []
            for _ in range(trials):
                victim = engine.objects.ids()[
                    rng.randint(len(engine.objects.ids()))
                ]
                removed, elapsed = time_call(engine.delete_object, victim)
                delete_times.append(elapsed)
                u, v = edges[rng.randint(len(edges))]
                delta = rng.uniform(0.0, dataset.network.edge_distance(u, v))
                replacement = SpatialObject(victim, (u, v), delta, dict(removed.attrs))
                _, elapsed = time_call(engine.insert_object, replacement)
                insert_times.append(elapsed)
            result.add_row(
                engine=name,
                network=network,
                delete_s=sum(delete_times) / trials,
                insert_s=sum(insert_times) / trials,
            )
    result.note("paper: DistIdx orders of magnitude slower (~2 min on "
                "NA/SF); others within 0.1s")
    return result


def fig16_network_update(
    *,
    networks: Sequence[str] = ("CA", "NA", "SF"),
    num_objects: int = DEFAULT_OBJECTS,
    trials: int = 5,
    engines: Sequence[str] = ENGINE_ORDER,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 16: edge deletion/insertion time per network.

    The paper's protocol: "randomly removing one edge by setting its edge
    distance to infinity and adding it back by recovering its original
    distance" — modelled with a huge finite distance so arithmetic stays
    clean.
    """
    huge = 1e12
    result = ExperimentResult(
        "fig16",
        f"Network update time (|O|={num_objects}, {trials} trials)",
        ["engine", "network", "delete_s", "insert_s"],
    )
    for network in networks:
        dataset = load_dataset(network)
        objects = make_objects(dataset.network, num_objects, seed=seed)
        built = build_engines(dataset, objects, engines=engines)
        rng = LegacyRandomState(seed)
        for name in engines:
            engine = built[name]
            edges = sorted((u, v) for u, v, _ in engine.network.edges())
            delete_times: List[float] = []
            insert_times: List[float] = []
            for _ in range(trials):
                u, v = edges[rng.randint(len(edges))]
                original = engine.network.edge_distance(u, v)
                _, elapsed = time_call(engine.update_edge_distance, u, v, huge)
                delete_times.append(elapsed)
                _, elapsed = time_call(
                    engine.update_edge_distance, u, v, original
                )
                insert_times.append(elapsed)
            result.add_row(
                engine=name,
                network=network,
                delete_s=sum(delete_times) / trials,
                insert_s=sum(insert_times) / trials,
            )
    result.note("paper: DistIdx rewrites signatures network-wide; ROAD "
                "refreshes affected shortcuts only (<2s on NA/SF); "
                "NetExp/Euclidean near-zero")
    return result


def fig17a_knn_vs_k(
    *,
    network: str = "CA",
    num_objects: int = DEFAULT_OBJECTS,
    ks: Sequence[int] = K_VALUES,
    engines: Sequence[str] = ENGINE_ORDER,
    num_queries: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 17(a): kNN processing time vs k."""
    dataset = load_dataset(network)
    objects = make_objects(dataset.network, num_objects, seed=seed)
    built = build_engines(dataset, objects, engines=engines)
    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig17a",
        f"kNN query vs k on {network} (|O|={num_objects})",
        ["engine", "k", "time_ms", "io_pages"],
    )
    for k in ks:
        queries = knn_workload(dataset.network, count, k, seed=seed + k)
        for name in engines:
            summary = run_workload(built[name], queries)
            result.add_row(
                engine=name, k=k,
                time_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: ROAD best for every k; Euclidean worst on CA")
    return result


def fig17b_knn_vs_objects(
    *,
    network: str = "CA",
    object_counts: Sequence[int] = OBJECT_COUNTS,
    k: int = DEFAULT_K,
    engines: Sequence[str] = ENGINE_ORDER,
    num_queries: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 17(b): kNN processing time vs object cardinality."""
    dataset = load_dataset(network)
    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig17b",
        f"kNN query vs |O| on {network} (k={k})",
        ["engine", "objects", "time_ms", "io_pages"],
    )
    for num_objects in object_counts:
        objects = make_objects(dataset.network, num_objects, seed=seed)
        built = build_engines(dataset, objects, engines=engines)
        queries = knn_workload(dataset.network, count, k, seed=seed)
        for name in engines:
            summary = run_workload(built[name], queries)
            result.add_row(
                engine=name, objects=num_objects,
                time_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: NetExp and ROAD improve steadily with |O|; the "
                "ROAD-NetExp gap narrows (ROAD is expansion-based too)")
    return result


def fig17c_knn_vs_network(
    *,
    networks: Sequence[str] = ("CA", "NA", "SF"),
    num_objects: int = DEFAULT_OBJECTS,
    k: int = DEFAULT_K,
    engines: Sequence[str] = ENGINE_ORDER,
    num_queries: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 17(c): kNN processing time vs network."""
    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig17c",
        f"kNN query vs network (|O|={num_objects}, k={k})",
        ["engine", "network", "time_ms", "io_pages"],
    )
    for network in networks:
        dataset = load_dataset(network)
        objects = make_objects(dataset.network, num_objects, seed=seed)
        built = build_engines(dataset, objects, engines=engines)
        queries = knn_workload(dataset.network, count, k, seed=seed)
        for name in engines:
            summary = run_workload(built[name], queries)
            result.add_row(
                engine=name, network=network,
                time_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: ROAD best on every network; Euclidean suffers most "
                "where Euclidean distance approximates network distance "
                "poorly (NA)")
    return result


def fig18a_range_vs_radius(
    *,
    network: str = "CA",
    num_objects: int = DEFAULT_OBJECTS,
    fractions: Sequence[float] = RANGE_FRACTIONS,
    engines: Sequence[str] = ENGINE_ORDER,
    num_queries: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 18(a): range query processing time vs radius."""
    dataset = load_dataset(network)
    objects = make_objects(dataset.network, num_objects, seed=seed)
    built = build_engines(dataset, objects, engines=engines)
    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig18a",
        f"Range query vs r on {network} (|O|={num_objects})",
        ["engine", "r_fraction", "time_ms", "io_pages"],
    )
    for fraction in fractions:
        radius = dataset.radius(fraction)
        queries = range_workload(dataset.network, count, radius, seed=seed)
        for name in engines:
            summary = run_workload(built[name], queries)
            result.add_row(
                engine=name, r_fraction=fraction,
                time_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: all grow with r; ROAD consistently best; DistIdx "
                "degrades at large r (bulky signatures)")
    return result


def fig18b_range_vs_objects(
    *,
    network: str = "CA",
    object_counts: Sequence[int] = OBJECT_COUNTS,
    fraction: float = DEFAULT_RANGE_FRACTION,
    engines: Sequence[str] = ENGINE_ORDER,
    num_queries: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 18(b): range query processing time vs object cardinality."""
    dataset = load_dataset(network)
    radius = dataset.radius(fraction)
    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig18b",
        f"Range query vs |O| on {network} (r={fraction} diameter)",
        ["engine", "objects", "time_ms", "io_pages"],
    )
    for num_objects in object_counts:
        objects = make_objects(dataset.network, num_objects, seed=seed)
        built = build_engines(dataset, objects, engines=engines)
        queries = range_workload(dataset.network, count, radius, seed=seed)
        for name in engines:
            summary = run_workload(built[name], queries)
            result.add_row(
                engine=name, objects=num_objects,
                time_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: NetExp ~flat (fixed range); ROAD approaches NetExp "
                "as |O| grows; Euclidean/DistIdx degrade")
    return result


def fig18c_range_vs_network(
    *,
    networks: Sequence[str] = ("CA", "NA", "SF"),
    num_objects: int = DEFAULT_OBJECTS,
    fraction: float = DEFAULT_RANGE_FRACTION,
    engines: Sequence[str] = ENGINE_ORDER,
    num_queries: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 18(c): range query processing time vs network."""
    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig18c",
        f"Range query vs network (|O|={num_objects}, r={fraction} diameter)",
        ["engine", "network", "time_ms", "io_pages"],
    )
    for network in networks:
        dataset = load_dataset(network)
        objects = make_objects(dataset.network, num_objects, seed=seed)
        built = build_engines(dataset, objects, engines=engines)
        radius = dataset.radius(fraction)
        queries = range_workload(dataset.network, count, radius, seed=seed)
        for name in engines:
            summary = run_workload(built[name], queries)
            result.add_row(
                engine=name, network=network,
                time_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: same ordering as kNN; ROAD best everywhere")
    return result


def fig19_hierarchy_levels(
    *,
    networks: Sequence[str] = ("CA", "NA", "SF"),
    levels: Optional[Dict[str, Sequence[int]]] = None,
    num_objects: int = DEFAULT_OBJECTS,
    k: int = DEFAULT_K,
    num_queries: Optional[int] = None,
    seed: int = 0,
    network_sizes: Optional[Dict[str, int]] = None,
) -> ExperimentResult:
    """Figure 19: impact of hierarchy depth l on build and query time."""
    from repro.eval.config import profile

    count = num_queries if num_queries is not None else queries_per_run()
    result = ExperimentResult(
        "fig19",
        f"Rnet hierarchy level sweep (p=4, |O|={num_objects}, k={k})",
        ["network", "levels", "build_s", "query_ms", "io_pages"],
    )
    for network in networks:
        size = (network_sizes or {}).get(network)
        dataset = load_dataset(network, num_nodes=size)
        objects = make_objects(dataset.network, num_objects, seed=seed)
        sweep = (levels or {}).get(network) or profile(network).level_sweep
        queries = knn_workload(dataset.network, count, k, seed=seed)
        for depth in sweep:
            engine = build_engine(
                "ROAD", dataset.network, objects, road_levels=depth
            )
            summary = run_workload(engine, queries)
            result.add_row(
                network=network, levels=depth,
                build_s=engine.build_seconds,
                query_ms=summary.mean_ms, io_pages=summary.mean_io,
            )
    result.note("paper: index time rises with l, query time drops steeply "
                "then flattens (knee at l=4 for CA, l=8 for NA/SF)")
    return result
