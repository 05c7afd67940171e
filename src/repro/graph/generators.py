"""Synthetic road-network generators.

The paper evaluates on three real networks from Li's dataset page [14]:

* ``CA`` — California highways: 21,048 nodes / 21,693 edges (ratio 1.031),
* ``NA`` — North America highways: 175,813 / 179,179 (ratio 1.019),
* ``SF`` — San Francisco streets: 174,956 / 223,001 (ratio 1.275).

Those files are not redistributable here, so this module synthesises
networks with the same *structural signatures* (documented in DESIGN.md §3):
random points triangulated with Delaunay, thinned to a connected spanning
structure plus the shortest extra edges needed to hit the target edge/node
ratio.  This yields connected, near-planar graphs whose degree distribution
and detour behaviour match highway (ratio ≈ 1.02–1.03) and urban street
(ratio ≈ 1.27) networks.  Real files still load through
:mod:`repro.graph.io` if available.

Every generator is deterministic under its ``seed``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

from repro.graph.network import RoadNetwork


def _numpy():
    """Import numpy on first use.

    Keeps ``import repro.graph`` (and everything layered on it — the core
    framework, FrozenRoad, the serving tier) stdlib-only; only the
    synthetic generators themselves need numpy, and environments without
    it (the no-numpy CI leg) still import and use the rest of the library.
    """
    from repro._optional import require_numpy

    return require_numpy("the synthetic network generators")


class GeneratorError(Exception):
    """Raised when requested parameters cannot produce a valid network."""


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

    np = _numpy()
    n = len(points)
    simplices = np.sort(Delaunay(points).simplices, axis=1).astype(np.int64)
    a, b, c = simplices[:, 0], simplices[:, 1], simplices[:, 2]
    codes = np.unique(np.concatenate((a * n + b, b * n + c, a * n + c)))
    us, vs = codes // n, codes % n
    delta = points[us] - points[vs]
    lengths = np.hypot(delta[:, 0], delta[:, 1])
    return list(zip(us.tolist(), vs.tolist())), lengths.tolist()


class _UnionFind:
    """Disjoint sets for Kruskal's spanning-tree construction."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


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
    """Generate a connected synthetic road network.

    Parameters
    ----------
    num_nodes:
        Number of road intersections (>= 3 for triangulation).
    edge_ratio:
        Target ``num_edges / num_nodes`` — 1.02 for continental highway
        meshes up to ~1.9 for dense grids.  Clamped to what the Delaunay
        triangulation can supply (≈ 3).
    seed:
        RNG seed; identical parameters and seed reproduce the same network.
    extent:
        Side length of the square region nodes are placed in.
    clusters:
        If positive, points are drawn around this many Gaussian "city"
        centres instead of uniformly (continent-scale networks are clumpy).
    weight_noise:
        Edge distance is Euclidean length times ``1 + U(0, weight_noise)``,
        so network distance dominates straight-line distance (the Euclidean
        lower bound of Section 2 holds) without being equal to it.
    metric:
        Metric label stored on the returned network.
    """
    if num_nodes < 3:
        raise GeneratorError("need at least 3 nodes for a triangulated network")
    if edge_ratio < 1.0 - 1.0 / num_nodes:
        raise GeneratorError("edge_ratio below spanning-tree density")
    np = _numpy()
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


def _repair_connectivity(network: RoadNetwork) -> None:
    """Link stray components (degenerate Delaunay merges) to the main one."""
    components = network.components()
    if len(components) <= 1:
        return
    components.sort(key=len, reverse=True)
    main = components[0]
    for comp in components[1:]:
        best: Optional[Tuple[float, int, int]] = None
        for u in comp:
            ux, uy = network.coords(u)
            for v in main:
                vx, vy = network.coords(v)
                d = math.hypot(ux - vx, uy - vy)
                if best is None or d < best[0]:
                    best = (d, u, v)
        assert best is not None
        network.add_edge(best[1], best[2], max(best[0], 1e-9))
        main |= comp


def ca_like(num_nodes: int = 2100, seed: int = 7) -> RoadNetwork:
    """California-highway-like network (edge/node ratio ≈ 1.031).

    Default size is a 1:10 scale of the paper's 21,048-node CA network; pass
    ``num_nodes=21048`` for the full-scale equivalent.
    """
    return road_network(num_nodes, 1.031, seed=seed, clusters=0)


def na_like(num_nodes: int = 8000, seed: int = 11) -> RoadNetwork:
    """North-America-highway-like network (ratio ≈ 1.019, clustered)."""
    return road_network(num_nodes, 1.019, seed=seed, clusters=12)


def sf_like(num_nodes: int = 8000, seed: int = 13) -> RoadNetwork:
    """San-Francisco-street-like network (dense urban, ratio ≈ 1.275)."""
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
    """Perturbed rectangular street grid (Manhattan-style test fixture).

    Grid networks make Rnet partitions and shortcut paths easy to reason
    about in tests; ``removal_prob`` knocks out random non-bridge edges to
    create irregular blocks while keeping the network connected.
    """
    if rows < 2 or cols < 2:
        raise GeneratorError("grid needs at least 2x2 nodes")
    rng = _numpy().random.RandomState(seed)
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


def chain_network(
    num_nodes: int, *, spacing: float = 100.0, metric: str = "distance"
) -> RoadNetwork:
    """Path graph n0 - n1 - ... — the running example of Figure 8."""
    if num_nodes < 2:
        raise GeneratorError("chain needs at least 2 nodes")
    network = RoadNetwork(metric=metric)
    for i in range(num_nodes):
        network.add_node(i, i * spacing, 0.0)
    for i in range(num_nodes - 1):
        network.add_edge(i, i + 1, spacing)
    return network


def travel_time_metric(
    network: RoadNetwork, *, seed: int = 0, speed_range: Tuple[float, float] = (20.0, 120.0)
) -> RoadNetwork:
    """Reweight a network from length to travel time.

    Each edge gets a random road speed, so travel time is *not* bounded
    below by Euclidean distance — the situation where Euclidean-bound
    approaches are "not always applicable" (Sections 1–2) while ROAD's
    shortcuts simply carry the new metric.
    """
    rng = _numpy().random.RandomState(seed)
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
