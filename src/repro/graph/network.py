"""Road network model.

Section 3.1: a road network is a weighted graph ``N = (N, E)`` where nodes
are road intersections, edges are road segments, and every edge carries a
positive distance that "can represent the travel distance, trip time or toll
of the corresponding road segment".  :class:`RoadNetwork` implements that
model as an undirected weighted graph with node coordinates (coordinates are
needed by the geometric partitioner, the CCAM layout, and the Euclidean
baseline; the ROAD framework itself never relies on them).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Set, Tuple

EdgeKey = Tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered representation of edge (u, v)."""
    return (u, v) if u <= v else (v, u)


class NetworkError(Exception):
    """Raised on invalid network mutations (duplicate edges, bad weights)."""


class RoadNetwork:
    """Undirected weighted graph with coordinates.

    Parameters
    ----------
    metric:
        Descriptive name of what edge weights mean (``"distance"``,
        ``"travel_time"``, ``"toll"``).  ROAD treats all metrics uniformly;
        the Euclidean baseline refuses metrics where the Euclidean lower
        bound does not hold (Section 2).
    """

    def __init__(self, metric: str = "distance") -> None:
        self.metric = metric
        self._adj: Dict[int, Dict[int, float]] = {}
        self._coords: Dict[int, Tuple[float, float]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float = 0.0, y: float = 0.0) -> None:
        """Add an isolated node with coordinates (x, y)."""
        if node_id in self._adj:
            raise NetworkError(f"node {node_id} already exists")
        self._adj[node_id] = {}
        self._coords[node_id] = (float(x), float(y))

    def add_edge(self, u: int, v: int, distance: float) -> None:
        """Add undirected edge (u, v) with a positive distance."""
        if u == v:
            raise NetworkError(f"self-loop at node {u} not allowed")
        if not 0 < distance < math.inf:  # NaN fails both comparisons
            raise NetworkError(f"edge ({u}, {v}) needs a positive finite distance")
        if u not in self._adj or v not in self._adj:
            missing = u if u not in self._adj else v
            raise NetworkError(f"node {missing} does not exist")
        if v in self._adj[u]:
            raise NetworkError(f"edge ({u}, {v}) already exists")
        self._adj[u][v] = float(distance)
        self._adj[v][u] = float(distance)
        self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> float:
        """Delete edge (u, v); return its distance."""
        try:
            distance = self._adj[u].pop(v)
            self._adj[v].pop(u)
        except KeyError:
            raise NetworkError(f"edge ({u}, {v}) does not exist") from None
        self._num_edges -= 1
        return distance

    def remove_node(self, node_id: int) -> None:
        """Delete a node and all its incident edges."""
        if node_id not in self._adj:
            raise NetworkError(f"node {node_id} does not exist")
        for neighbour in list(self._adj[node_id]):
            self.remove_edge(node_id, neighbour)
        del self._adj[node_id]
        del self._coords[node_id]

    def update_edge(self, u: int, v: int, distance: float) -> float:
        """Change the distance of edge (u, v); return the old distance."""
        if not 0 < distance < math.inf:  # NaN fails both comparisons
            raise NetworkError(f"edge ({u}, {v}) needs a positive finite distance")
        if u not in self._adj or v not in self._adj[u]:
            raise NetworkError(f"edge ({u}, {v}) does not exist")
        old = self._adj[u][v]
        self._adj[u][v] = float(distance)
        self._adj[v][u] = float(distance)
        return old

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def has_node(self, node_id: int) -> bool:
        """True if the node exists."""
        return node_id in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge (u, v) exists."""
        return u in self._adj and v in self._adj[u]

    def node_ids(self) -> Iterator[int]:
        """Iterate node ids in insertion order."""
        return iter(self._adj)

    def neighbours(self, node_id: int) -> Iterator[Tuple[int, float]]:
        """Iterate (neighbour, distance) pairs of ``node_id``."""
        try:
            adj = self._adj[node_id]
        except KeyError:
            raise NetworkError(f"node {node_id} does not exist") from None
        return iter(adj.items())

    def degree(self, node_id: int) -> int:
        """Number of incident edges."""
        try:
            return len(self._adj[node_id])
        except KeyError:
            raise NetworkError(f"node {node_id} does not exist") from None

    def edge_distance(self, u: int, v: int) -> float:
        """Distance of edge (u, v)."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise NetworkError(f"edge ({u}, {v}) does not exist") from None

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate undirected edges once each as (u, v, distance), u < v."""
        for u, adj in self._adj.items():
            for v, distance in adj.items():
                if u < v:
                    yield u, v, distance

    def coords(self, node_id: int) -> Tuple[float, float]:
        """Coordinates of ``node_id``."""
        try:
            return self._coords[node_id]
        except KeyError:
            raise NetworkError(f"node {node_id} does not exist") from None

    def set_coords(self, node_id: int, x: float, y: float) -> None:
        """Move a node (layout only; edge distances are untouched)."""
        if node_id not in self._coords:
            raise NetworkError(f"node {node_id} does not exist")
        self._coords[node_id] = (float(x), float(y))

    def euclidean(self, u: int, v: int) -> float:
        """Straight-line distance between two nodes' coordinates."""
        ux, uy = self.coords(u)
        vx, vy = self.coords(v)
        return math.hypot(ux - vx, uy - vy)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def copy(self) -> "RoadNetwork":
        """Deep copy (used by maintenance tests to diff before/after)."""
        dup = RoadNetwork(metric=self.metric)
        for node_id, (x, y) in self._coords.items():
            dup.add_node(node_id, x, y)
        for u, v, distance in self.edges():
            dup.add_edge(u, v, distance)
        return dup

    def edge_subgraph(self, edge_keys: Iterable[EdgeKey]) -> "RoadNetwork":
        """Subgraph induced by a set of edges (used for Rnet-local search)."""
        sub = RoadNetwork(metric=self.metric)
        for u, v in edge_keys:
            for node in (u, v):
                if not sub.has_node(node):
                    x, y = self.coords(node)
                    sub.add_node(node, x, y)
            sub.add_edge(u, v, self.edge_distance(u, v))
        return sub

    def connected(self) -> bool:
        """True if every node is reachable from every other node."""
        if self.num_nodes == 0:
            return True
        start = next(iter(self._adj))
        seen: Set[int] = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in self._adj[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return len(seen) == self.num_nodes

    def components(self) -> List[Set[int]]:
        """Connected components as sets of node ids."""
        seen: Set[int] = set()
        out: List[Set[int]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                node = stack.pop()
                for neighbour in self._adj[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        comp.add(neighbour)
                        stack.append(neighbour)
            out.append(comp)
        return out

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) over node coordinates."""
        if not self._coords:
            raise NetworkError("empty network has no bounding box")
        xs = [c[0] for c in self._coords.values()]
        ys = [c[1] for c in self._coords.values()]
        return min(xs), min(ys), max(xs), max(ys)

    def total_edge_distance(self) -> float:
        """Sum of all edge distances."""
        return sum(d for _, _, d in self.edges())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(metric={self.metric!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
