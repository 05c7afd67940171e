"""Shortest-path primitives: Dijkstra [4] and A* [3].

Every approach in the paper bottoms out in these algorithms: network
expansion *is* Dijkstra from the query node; ROAD runs Dijkstra over physical
edges plus shortcuts; shortcut construction runs Dijkstra inside Rnets and
over border graphs; the Euclidean baseline verifies candidates with A*.

All functions work against an *adjacency function* ``node -> iterable of
(neighbour, distance)`` so the same code serves the in-memory network, the
disk-resident :class:`~repro.storage.ccam.NetworkStore` (charging page I/O),
Rnet-restricted subgraphs, and border graphs made of shortcuts.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.network import RoadNetwork

Adjacency = Callable[[int], Iterable[Tuple[int, float]]]


class Unreachable(Exception):
    """Raised when a requested target cannot be reached from the source."""


def dijkstra(
    adjacency: Adjacency,
    source: int,
    *,
    targets: Optional[Set[int]] = None,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Single-source Dijkstra over an adjacency function.

    Parameters
    ----------
    adjacency:
        ``node -> iterable of (neighbour, edge_distance)``.
    source:
        Start node (distance 0).
    targets:
        Optional early-exit set: the search stops once every target has been
        settled (used for shortcut computation border-to-border).
    cutoff:
        Optional distance bound: nodes farther than ``cutoff`` are not
        settled (used by range queries and filter steps).

    Returns
    -------
    (distances, predecessors):
        ``distances[n]`` is the exact network distance for every settled
        node; ``predecessors[n]`` gives the previous node on one shortest
        path (absent for the source).
    """
    dist: Dict[int, float] = {source: 0.0}
    pred: Dict[int, int] = {}
    settled: Set[int] = set()
    pending = set(targets) if targets else None
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        if cutoff is not None and d > cutoff:
            break
        settled.add(node)
        if pending is not None:
            pending.discard(node)
            if not pending:
                break
        for neighbour, weight in adjacency(node):
            if neighbour in settled:
                continue
            candidate = d + weight
            if cutoff is not None and candidate > cutoff:
                continue
            if candidate < dist.get(neighbour, math.inf):
                dist[neighbour] = candidate
                pred[neighbour] = node
                heapq.heappush(heap, (candidate, neighbour))
    # Drop tentative (never settled) labels so callers see exact values only.
    if len(settled) != len(dist):
        dist = {n: d for n, d in dist.items() if n in settled}
        pred = {n: p for n, p in pred.items() if n in settled}
    return dist, pred


def dijkstra_distances(
    adjacency: Adjacency,
    source: int,
    *,
    targets: Optional[Set[int]] = None,
    cutoff: Optional[float] = None,
) -> Dict[int, float]:
    """Like :func:`dijkstra` but returns only the distance map."""
    dist, _ = dijkstra(adjacency, source, targets=targets, cutoff=cutoff)
    return dist


def shortest_path(
    network: RoadNetwork, source: int, target: int
) -> Tuple[float, List[int]]:
    """Exact shortest path in a network; returns (distance, node sequence)."""
    dist, pred = dijkstra(network.neighbours, source, targets={target})
    if target not in dist:
        raise Unreachable(f"no path from {source} to {target}")
    return dist[target], reconstruct_path(pred, source, target)


def network_distance(network: RoadNetwork, source: int, target: int) -> float:
    """``||u, v||`` — the shortest-path distance between two nodes."""
    distance, _ = shortest_path(network, source, target)
    return distance


def reconstruct_path(pred: Dict[int, int], source: int, target: int) -> List[int]:
    """Rebuild the node sequence from a predecessor map."""
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def astar(
    adjacency: Adjacency,
    source: int,
    target: int,
    heuristic: Callable[[int], float],
    *,
    cutoff: Optional[float] = None,
) -> Tuple[float, List[int]]:
    """A* search with a caller-supplied admissible heuristic.

    The Euclidean baseline uses ``heuristic(n) = euclidean(n, target)``,
    valid only when edge weights dominate straight-line distance — exactly
    the limitation the paper holds against Euclidean-bound approaches.
    """
    dist: Dict[int, float] = {source: 0.0}
    pred: Dict[int, int] = {}
    settled: Set[int] = set()
    heap: List[Tuple[float, float, int]] = [(heuristic(source), 0.0, source)]
    while heap:
        _, d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return d, reconstruct_path(pred, source, target)
        for neighbour, weight in adjacency(node):
            if neighbour in settled:
                continue
            candidate = d + weight
            if cutoff is not None and candidate > cutoff:
                continue
            if candidate < dist.get(neighbour, math.inf):
                dist[neighbour] = candidate
                pred[neighbour] = node
                heapq.heappush(
                    heap, (candidate + heuristic(neighbour), candidate, neighbour)
                )
    raise Unreachable(f"no path from {source} to {target}")


def euclidean_heuristic(network: RoadNetwork, target: int) -> Callable[[int], float]:
    """Heuristic for :func:`astar`: straight-line distance to ``target``."""
    tx, ty = network.coords(target)

    def h(node: int) -> float:
        x, y = network.coords(node)
        return math.hypot(x - tx, y - ty)

    return h


def eccentricity(network: RoadNetwork, source: int) -> Tuple[int, float]:
    """Farthest settled node and its distance from ``source``."""
    dist = dijkstra_distances(network.neighbours, source)
    # __getitem__ (not .get): every key is present, and the bound method
    # types as int -> float with no Optional to upset max()'s key.
    node = max(dist, key=dist.__getitem__)
    return node, dist[node]


def estimate_diameter(network: RoadNetwork, sweeps: int = 2) -> float:
    """Double-sweep estimate of the network diameter.

    The paper expresses range-query radii as fractions of the network
    diameter (Table 1); computing the exact diameter is quadratic, so we use
    the standard repeated farthest-node sweep, which is exact on trees and a
    tight lower bound on near-planar road networks.
    """
    if network.num_nodes == 0:
        return 0.0
    node = next(iter(network.node_ids()))
    best = 0.0
    for _ in range(max(1, sweeps)):
        node, distance = eccentricity(network, node)
        best = max(best, distance)
    return best
