"""Reference generators: the numpy/scipy formulation the library used to ship.

Kept verbatim (bar the imports and the docstrings) as the differential oracle for
:mod:`repro.graph.generators`, :mod:`repro.objects.placement` and
:mod:`repro.queries.workload`, whose stdlib replacements must produce the
same networks, object sets and workloads bit for bit.  The stdlib helpers
both formulations share (spanning-tree union-find, connectivity repair,
hop neighbourhoods, attribute sampling) are imported from the library;
the BFS relabelling is kept here as the library had it before its
version learnt to empty the source network while copying it.  Not imported by the library; importing it needs numpy
and scipy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.generators import (
    GeneratorError,
    _repair_connectivity,
    _UnionFind,
)
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.objects.placement import _any_edge, _edges_within_hops, _sample_attrs
from repro.queries.types import ANY, KNNQuery, Predicate, RangeQuery


def _rng(seed: int) -> "np.random.RandomState":
    return np.random.RandomState(seed)


def _delaunay_edges(
    points: np.ndarray,
) -> Tuple[List[Tuple[int, int]], List[float]]:
    """Unique undirected edges of the Delaunay triangulation of ``points``.

    Returns the sorted ``(u, v)`` pairs with ``u < v`` and their Euclidean
    lengths.  Each pair is encoded as the integer ``u * n + v`` (64-bit:
    ``n**2`` outgrows the triangulation's 32-bit indices), whose order is
    the pairs' lexicographic order.
    """
    from scipy.spatial import Delaunay  # imported lazily: optional heavy dep

    n = len(points)
    simplices = np.sort(Delaunay(points).simplices, axis=1).astype(np.int64)
    a, b, c = simplices[:, 0], simplices[:, 1], simplices[:, 2]
    codes = np.unique(np.concatenate((a * n + b, b * n + c, a * n + c)))
    us, vs = codes // n, codes % n
    delta = points[us] - points[vs]
    lengths = np.hypot(delta[:, 0], delta[:, 1])
    return list(zip(us.tolist(), vs.tolist())), lengths.tolist()


def road_network(
    num_nodes: int,
    edge_ratio: float,
    *,
    seed: int = 0,
    extent: float = 1000.0,
    clusters: int = 0,
    weight_noise: float = 0.25,
    metric: str = "distance",
) -> RoadNetwork:
    if num_nodes < 3:
        raise GeneratorError("need at least 3 nodes for a triangulated network")
    if edge_ratio < 1.0 - 1.0 / num_nodes:
        raise GeneratorError("edge_ratio below spanning-tree density")
    rng = np.random.RandomState(seed)

    if clusters > 0:
        centres = rng.uniform(0.1 * extent, 0.9 * extent, size=(clusters, 2))
        assignment = rng.randint(0, clusters, size=num_nodes)
        sigma = extent / (2.0 * math.sqrt(clusters))
        points = centres[assignment] + rng.normal(0.0, sigma, size=(num_nodes, 2))
        points = np.clip(points, 0.0, extent)
    else:
        points = rng.uniform(0.0, extent, size=(num_nodes, 2))
    # Delaunay merges coincident points (clipping creates them), which would
    # leave isolated nodes; spread everything slightly apart.
    points += rng.uniform(-1e-4 * extent, 1e-4 * extent, size=points.shape)

    edges, edge_lengths = _delaunay_edges(points)
    lengths = dict(zip(edges, edge_lengths))

    # Spanning tree first (connectivity), then the shortest remaining
    # Delaunay edges until the target count is reached: short links dominate
    # real road networks.
    ordered = sorted(edges, key=lambda e: lengths[e])
    uf = _UnionFind(num_nodes)
    chosen: List[Tuple[int, int]] = []
    rest: List[Tuple[int, int]] = []
    for u, v in ordered:
        if uf.union(u, v):
            chosen.append((u, v))
        else:
            rest.append((u, v))
    target_edges = int(round(edge_ratio * num_nodes))
    target_edges = max(target_edges, len(chosen))
    extra_needed = min(target_edges - len(chosen), len(rest))
    chosen.extend(rest[:extra_needed])

    network = RoadNetwork(metric=metric)
    for node_id in range(num_nodes):
        network.add_node(node_id, float(points[node_id][0]), float(points[node_id][1]))
    for u, v in chosen:
        noise = 1.0 + float(rng.uniform(0.0, weight_noise))
        network.add_edge(u, v, max(lengths[(u, v)] * noise, 1e-9))
    _repair_connectivity(network)
    # Real road datasets number intersections with strong spatial locality
    # (consecutive ids are near each other); reproduce that so id-keyed
    # indexes (B+-trees) see the same access locality as on the real files.
    return _relabel_by_bfs(network)


def _relabel_by_bfs(network: RoadNetwork) -> RoadNetwork:
    """Renumber nodes in breadth-first order from a corner node."""
    from collections import deque

    start = min(
        network.node_ids(),
        key=lambda n: (network.coords(n)[0] + network.coords(n)[1], n),
    )
    order: List[int] = []
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbour, _ in sorted(network.neighbours(node)):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    for node in network.node_ids():  # unreachable safety net
        if node not in seen:
            seen.add(node)
            order.append(node)
    mapping = {old: new for new, old in enumerate(order)}
    relabelled = RoadNetwork(metric=network.metric)
    for old in order:
        x, y = network.coords(old)
        relabelled.add_node(mapping[old], x, y)
    for u, v, distance in network.edges():
        relabelled.add_edge(mapping[u], mapping[v], distance)
    return relabelled


def ca_like(num_nodes: int = 2100, seed: int = 7) -> RoadNetwork:
    return road_network(num_nodes, 1.031, seed=seed, clusters=0)


def na_like(num_nodes: int = 8000, seed: int = 11) -> RoadNetwork:
    return road_network(num_nodes, 1.019, seed=seed, clusters=12)


def sf_like(num_nodes: int = 8000, seed: int = 13) -> RoadNetwork:
    return road_network(num_nodes, 1.275, seed=seed, clusters=0)


def grid_network(
    rows: int,
    cols: int,
    *,
    spacing: float = 100.0,
    seed: int = 0,
    jitter: float = 0.15,
    removal_prob: float = 0.0,
    metric: str = "distance",
) -> RoadNetwork:
    if rows < 2 or cols < 2:
        raise GeneratorError("grid needs at least 2x2 nodes")
    rng = np.random.RandomState(seed)
    network = RoadNetwork(metric=metric)

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            dx = float(rng.uniform(-jitter, jitter)) * spacing
            dy = float(rng.uniform(-jitter, jitter)) * spacing
            network.add_node(node_id(r, c), c * spacing + dx, r * spacing + dy)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                u, v = node_id(r, c), node_id(r, c + 1)
                network.add_edge(u, v, max(network.euclidean(u, v), 1e-9))
            if r + 1 < rows:
                u, v = node_id(r, c), node_id(r + 1, c)
                network.add_edge(u, v, max(network.euclidean(u, v), 1e-9))

    if removal_prob > 0.0:
        candidates = [(u, v) for u, v, _ in network.edges()]
        rng.shuffle(candidates)
        limit = int(len(candidates) * removal_prob)
        for u, v in candidates[:limit]:
            distance = network.remove_edge(u, v)
            if not network.connected():
                network.add_edge(u, v, distance)
    return network


def travel_time_metric(
    network: RoadNetwork, *, seed: int = 0, speed_range: Tuple[float, float] = (20.0, 120.0)
) -> RoadNetwork:
    rng = np.random.RandomState(seed)
    lo, hi = speed_range
    if lo <= 0 or hi < lo:
        raise GeneratorError("invalid speed range")
    timed = RoadNetwork(metric="travel_time")
    for node_id in network.node_ids():
        x, y = network.coords(node_id)
        timed.add_node(node_id, x, y)
    for u, v, distance in network.edges():
        speed = float(rng.uniform(lo, hi))
        timed.add_edge(u, v, distance / speed)
    return timed


def place_uniform(
    network: RoadNetwork,
    count: int,
    *,
    seed: int = 0,
    attr_choices: Optional[Dict[str, Sequence[str]]] = None,
) -> ObjectSet:
    rng = _rng(seed)
    edges = sorted((u, v) for u, v, _ in network.edges())
    if not edges:
        raise ValueError("network has no edges to place objects on")
    objects = ObjectSet()
    for object_id in range(count):
        u, v = edges[rng.randint(0, len(edges))]
        distance = network.edge_distance(u, v)
        delta = float(rng.uniform(0.0, distance))
        attrs = _sample_attrs(rng, attr_choices)
        objects.add(SpatialObject(object_id, (u, v), delta, attrs))
    return objects


def place_clustered(
    network: RoadNetwork,
    count: int,
    *,
    clusters: int = 4,
    seed: int = 0,
    spread: int = 3,
    attr_choices: Optional[Dict[str, Sequence[str]]] = None,
) -> ObjectSet:
    if clusters < 1:
        raise ValueError("need at least one cluster")
    rng = _rng(seed)
    nodes = sorted(network.node_ids())
    hubs = [nodes[i] for i in rng.choice(len(nodes), size=clusters, replace=False)]
    pools: List[List[Tuple[int, int]]] = []
    for hub in hubs:
        pool = _edges_within_hops(network, hub, spread)
        pools.append(pool if pool else [_any_edge(network, hub)])
    objects = ObjectSet()
    for object_id in range(count):
        pool = pools[rng.randint(0, clusters)]
        u, v = pool[rng.randint(0, len(pool))]
        distance = network.edge_distance(u, v)
        delta = float(rng.uniform(0.0, distance))
        attrs = _sample_attrs(rng, attr_choices)
        objects.add(SpatialObject(object_id, (u, v), delta, attrs))
    return objects


def random_query_nodes(
    network: RoadNetwork, count: int, *, seed: int = 0
) -> List[int]:
    rng = _rng(seed)
    nodes = sorted(network.node_ids())
    return [nodes[i] for i in rng.randint(0, len(nodes), size=count)]


def mixed_workload(
    network: RoadNetwork,
    count: int,
    *,
    k: int = 5,
    radius: float = 0.0,
    seed: int = 0,
    predicates: Sequence[Predicate] = (ANY,),
    knn_fraction: float = 0.5,
) -> List[object]:
    if not predicates:
        raise ValueError("need at least one predicate")
    rng = _rng(seed)
    nodes = random_query_nodes(network, count, seed=seed)
    queries: List[object] = []
    for i, node in enumerate(nodes):
        predicate = predicates[i % len(predicates)]
        if rng.random_sample() < knn_fraction:
            queries.append(KNNQuery(node, k, predicate))
        else:
            queries.append(RangeQuery(node, radius, predicate))
    return queries
