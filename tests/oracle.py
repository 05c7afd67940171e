"""Brute-force oracles shared across test suites.

Every engine (ROAD and the baselines) must agree with plain Dijkstra from
the query node — the paper's correctness ground truth.  Snapshot probes
compare against a fresh freeze instead; :func:`serving_snapshots` names
the snapshots a service actually serves from, :func:`build_arm` builds a
service on one of the :data:`ARMS` its batches can execute on,
:data:`QUERY_SAMPLES` holds one query per declared kind and
:data:`WRITE_SAMPLES` one write per declared kind.
:func:`random_objects` and :func:`build_multi_road` are the random
scaffold the property suites build on.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import pytest

from repro.core.framework import ROAD
from repro.core.frozen_backends import shared_memory_available
from repro.graph.network import RoadNetwork
from repro.graph.shortest_path import dijkstra_distances
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import (
    ANY,
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixQuery,
    Predicate,
    RangeQuery,
    RouteKNNQuery,
    ServiceAreaQuery,
)
from repro.queries.writes import (
    AddEdge,
    DeleteObject,
    InsertObject,
    RemoveEdge,
    UpdateEdgeDistance,
    UpdateObjectAttrs,
)
from repro.serving import RoadService, ServiceConfig
from tests.conftest import random_connected_network

#: One representative query per declared kind (predicate-bearing where
#: the kind takes one), valid on any network holding nodes 0..63 whose
#: objects carry a ``type`` of ``"a"`` or ``"b"``.
QUERY_SAMPLES = {
    KNNQuery: KNNQuery(0, 3, Predicate.of(type="a")),
    RangeQuery: RangeQuery(0, 250.0),
    AggregateKNNQuery: AggregateKNNQuery((0, 20), 2, agg="max"),
    ODMatrixQuery: ODMatrixQuery((0, 9), (20, 63)),
    ServiceAreaQuery: ServiceAreaQuery(0, (150.0, 400.0), Predicate.of(type="a")),
    RouteKNNQuery: RouteKNNQuery((0, 1, 9), 2, Predicate.of(type="b")),
}

#: One write per declared kind, in an order where each one's
#: precondition holds on a network holding edge (0, 1) but not edge
#: (0, 27) whose default directory holds no object 10_000.
WRITE_SAMPLES = {
    InsertObject: InsertObject(SpatialObject(10_000, (0, 1), 0.0, {"type": "a"})),
    UpdateObjectAttrs: UpdateObjectAttrs(10_000, {"type": "b"}),
    DeleteObject: DeleteObject(10_000),
    UpdateEdgeDistance: UpdateEdgeDistance(0, 1, 25.0),
    AddEdge: AddEdge(0, 27, 40.0),
    RemoveEdge: RemoveEdge(0, 27),
}


#: The directories :func:`build_multi_road` attaches, the default first.
DIRECTORIES = ("objects", "hotels", "fuel")


def random_objects(rnd, network, count, with_attrs=True):
    """``count`` objects on uniformly drawn edges at uniform offsets,
    each typed ``"a"`` or ``"b"`` unless ``with_attrs`` is false."""
    objects = ObjectSet()
    edges = sorted((u, v) for u, v, _ in network.edges())
    for object_id in range(count):
        u, v = edges[rnd.randrange(len(edges))]
        delta = rnd.uniform(0.0, network.edge_distance(u, v))
        attrs = {"type": rnd.choice(["a", "b"])} if with_attrs else {}
        objects.add(SpatialObject(object_id, (u, v), delta, attrs))
    return objects


def build_multi_road(rnd):
    """A random network and a ROAD over it with every one of
    :data:`DIRECTORIES` attached: ``(network, road, {name: directory})``."""
    network = random_connected_network(
        rnd, rnd.randint(15, 40), rnd.randint(2, 15)
    )
    road = ROAD.build(network, levels=rnd.randint(1, 3), fanout=4)
    directories = {}
    for name in DIRECTORIES:
        objects = random_objects(rnd, network, rnd.randint(1, 6))
        directories[name] = road.attach_objects(objects, name=name)
    return network, road, directories


def brute_object_distances(
    network: RoadNetwork,
    objects: ObjectSet,
    query_node: int,
    predicate: Predicate = ANY,
) -> List[Tuple[float, int]]:
    """(distance, object_id) for every reachable matching object, sorted."""
    dist = dijkstra_distances(network.neighbours, query_node)
    out: List[Tuple[float, int]] = []
    for obj in objects:
        if not predicate.matches(obj):
            continue
        u, v = obj.edge
        edge_distance = network.edge_distance(u, v)
        candidates = [
            dist[n] + obj.offset_from(n, edge_distance)
            for n in (u, v)
            if n in dist
        ]
        if candidates:
            out.append((min(candidates), obj.object_id))
    out.sort()
    return out


def brute_knn(
    network: RoadNetwork,
    objects: ObjectSet,
    query_node: int,
    k: int,
    predicate: Predicate = ANY,
) -> List[Tuple[float, int]]:
    """The k nearest matching objects by exact network distance."""
    return brute_object_distances(network, objects, query_node, predicate)[:k]


def brute_range(
    network: RoadNetwork,
    objects: ObjectSet,
    query_node: int,
    radius: float,
    predicate: Predicate = ANY,
) -> List[Tuple[float, int]]:
    """All matching objects within ``radius``, sorted by distance."""
    return [
        (d, i)
        for d, i in brute_object_distances(network, objects, query_node, predicate)
        if d <= radius + 1e-9
    ]


def assert_od_matches_dijkstra(
    network: RoadNetwork,
    sources: Sequence[int],
    targets: Sequence[int],
    cells,
    *,
    tol: float = 1e-6,
) -> None:
    """OD cells against plain Dijkstra from each source.

    Row-major (source, target) pairs exactly; distances within ``tol``
    (shortcut weights are pre-summed, so the last digits may differ);
    ``inf`` exactly where the target is unreachable.
    """
    assert [(c.source, c.target) for c in cells] == [
        (s, t) for s in sources for t in targets
    ]
    exact = {
        s: dijkstra_distances(network.neighbours, s) for s in set(sources)
    }
    for cell in cells:
        want = exact[cell.source].get(cell.target, math.inf)
        if math.isinf(want):
            assert math.isinf(cell.distance), cell
        else:
            assert abs(cell.distance - want) <= tol, (cell, want)


def assert_same_result(got, expected, *, tol: float = 1e-6) -> None:
    """Compare engine output against an oracle, tolerating distance ties.

    ``got`` is a list of ResultEntry; ``expected`` is (distance, id) pairs.
    Distances must match pairwise; ids must match except within tied
    groups, where any permutation of the tied ids is accepted.
    """
    assert len(got) == len(expected), (
        f"result size {len(got)} != expected {len(expected)}: "
        f"{[(e.object_id, e.distance) for e in got]} vs {expected}"
    )
    for entry, (exp_dist, _) in zip(got, expected):
        assert abs(entry.distance - exp_dist) <= tol, (
            f"distance mismatch: {entry} vs expected {exp_dist}"
        )
    # Group by (approximately) equal distance and compare id sets per group.
    def groups(pairs):
        grouped, current, current_d = [], [], None
        for d, i in pairs:
            if current and abs(d - current_d) > tol:
                grouped.append(sorted(current))
                current = []
            current.append(i)
            current_d = d
        if current:
            grouped.append(sorted(current))
        return grouped

    got_pairs = [(e.distance, e.object_id) for e in got]
    exp_groups = groups(expected)
    got_groups = groups(got_pairs)
    # Tie groups at the tail may be cut differently by k; compare the union.
    assert sorted(i for g in got_groups for i in g) == sorted(
        i for g in exp_groups for i in g
    ) or _tie_tolerant_equal(got_pairs, expected, tol), (
        f"id mismatch: {got_pairs} vs {expected}"
    )


def _tie_tolerant_equal(got_pairs, expected, tol: float) -> bool:
    """Accept differing ids only where distances tie at the boundary."""
    exp_by_id = {i: d for d, i in expected}
    exp_dists = sorted(d for d, _ in expected)
    got_dists = sorted(d for d, _ in got_pairs)
    if len(got_dists) != len(exp_dists):
        return False
    if any(abs(a - b) > tol for a, b in zip(got_dists, exp_dists)):
        return False
    # Every got id must either be expected, or have a distance equal to some
    # expected distance (a legitimate tie swap).
    for d, i in got_pairs:
        if i in exp_by_id:
            continue
        if not any(abs(d - e) <= tol for e in exp_dists):
            return False
    return True


def serving_snapshots(service) -> list:
    """The compiled snapshots a ``RoadService``'s batches run on.

    The process pool's shared snapshot when the replica set holds one;
    otherwise (inline and thread replicas) the primary executor's own.
    Never empty: a probe loop over none would pass checking nothing.
    """
    snapshots = list(service.replicas) or [service.executor.frozen]
    assert all(snapshot is not None for snapshot in snapshots), (
        "no frozen snapshot serves this service"
    )
    return snapshots


#: Every execution arm the dispatch pipeline hands batches to.
ARMS = {
    "inline": {},
    "thread": {"replicas": 2},
    "process": {"replicas": 1, "replica_mode": "process"},
}


def build_arm(network, objects, arm, *, engine=None, **overrides):
    """A frozen-mode service on one execution arm of the lattice.

    ``overrides`` are :class:`ServiceConfig` fields; ``engine`` holds
    keyword arguments for the ROAD engine (``providers``,
    ``abstract_factory``, ``reduce_shortcuts``, ...).
    """
    if arm == "process" and not shared_memory_available():
        pytest.skip("host has no POSIX shared memory (/dev/shm)")
    settings = {"mode": "frozen", "levels": 3, **ARMS[arm], **overrides}
    return RoadService.build(
        network.copy(), objects, config=ServiceConfig(**settings),
        **(engine or {}),
    )
