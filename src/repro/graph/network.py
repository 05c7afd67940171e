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
from array import array
from typing import Dict, Iterable, Iterator, List, Set, Tuple

EdgeKey = Tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered representation of edge (u, v)."""
    return (u, v) if u <= v else (v, u)


class NetworkError(Exception):
    """Raised on invalid network mutations (duplicate edges, bad weights)."""


class RoadNetwork:
    """Undirected weighted graph with coordinates.

    Every edge and coordinate is stored once, in the smallest plain shape
    that keeps the access order:

    * ``_adj`` maps each node (in insertion order) to one flat list
      ``[v0, d0, v1, d1, ...]``: neighbour ids on the even slots, edge
      distances on the odd ones, in the order the edges were added — the
      order a per-node dict kept.  An edge's distance float is one object
      shared by both endpoints' lists.
    * Coordinates of the dense ids ``0 .. n-1`` (every generator and the
      Li-format files number nodes that way) sit in one ``array('d')`` as
      ``x, y`` pairs; any other id keeps an ``(x, y)`` tuple in a small
      dict.  A removed dense id leaves its slot for a later re-add.

    Everything else — the ``(neighbour, distance)`` pairs of
    :meth:`neighbours`, degrees, the ``(x, y)`` tuples of :meth:`coords` —
    is derived on demand; no index structure keeps a copy of it.

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
        self._adj: Dict[int, List] = {}
        self._xy = array("d")  # x0, y0, x1, y1, ... of the dense ids
        self._far_xy: Dict[int, Tuple[float, float]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float = 0.0, y: float = 0.0) -> None:
        """Add an isolated node with coordinates (x, y)."""
        if node_id in self._adj:
            raise NetworkError(f"node {node_id} already exists")
        self._store_xy(node_id, float(x), float(y))
        self._adj[node_id] = []

    def add_edge(self, u: int, v: int, distance: float) -> None:
        """Add undirected edge (u, v) with a positive distance."""
        if u == v:
            raise NetworkError(f"self-loop at node {u} not allowed")
        if not 0 < distance < math.inf:  # NaN fails both comparisons
            raise NetworkError(f"edge ({u}, {v}) needs a positive finite distance")
        if u not in self._adj or v not in self._adj:
            missing = u if u not in self._adj else v
            raise NetworkError(f"node {missing} does not exist")
        if self._distance_slot(u, v) >= 0:
            raise NetworkError(f"edge ({u}, {v}) already exists")
        distance = float(distance)
        adj = self._adj[u]
        adj.append(v)
        adj.append(distance)
        adj = self._adj[v]
        adj.append(u)
        adj.append(distance)
        self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> float:
        """Delete edge (u, v); return its distance."""
        i = self._distance_slot(u, v)
        if i < 0:
            raise NetworkError(f"edge ({u}, {v}) does not exist")
        distance = self._adj[u][i]
        del self._adj[u][i - 1 : i + 1]
        j = self._distance_slot(v, u)
        del self._adj[v][j - 1 : j + 1]
        self._num_edges -= 1
        return distance

    def remove_node(self, node_id: int) -> None:
        """Delete a node and all its incident edges."""
        if node_id not in self._adj:
            raise NetworkError(f"node {node_id} does not exist")
        for neighbour in self._adj[node_id][::2]:
            self.remove_edge(node_id, neighbour)
        del self._adj[node_id]
        self._far_xy.pop(node_id, None)

    def update_edge(self, u: int, v: int, distance: float) -> float:
        """Change the distance of edge (u, v); return the old distance."""
        if not 0 < distance < math.inf:  # NaN fails both comparisons
            raise NetworkError(f"edge ({u}, {v}) needs a positive finite distance")
        return self._set_distance(u, v, distance)

    def _set_distance(self, u: int, v: int, distance: float) -> float:
        """Overwrite edge (u, v)'s distance in place, unchecked; return the old.

        The edge keeps its position in both endpoints' lists.
        """
        i = self._distance_slot(u, v)
        if i < 0:
            raise NetworkError(f"edge ({u}, {v}) does not exist")
        old = self._adj[u][i]
        distance = float(distance)
        self._adj[u][i] = distance
        self._adj[v][self._distance_slot(v, u)] = distance
        return old

    def _distance_slot(self, u: int, v: int) -> int:
        """Index of edge (u, v)'s distance in ``u``'s list; -1 if absent.

        Only the even (neighbour) slots are searched: a distance equal to
        ``v`` never matches.
        """
        adj = self._adj.get(u)
        if adj is not None:
            try:
                return 2 * adj[::2].index(v) + 1
            except ValueError:
                pass
        return -1

    def drain_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield every edge once, in :meth:`edges` order, emptying the network.

        Each node (with its list) is dropped as soon as its edges are out,
        so a caller copying the edges into another network never holds two
        full adjacencies.  Read coordinates first: the network ends empty.
        """
        adjacency = self._adj
        for u in list(adjacency):
            slots = iter(adjacency.pop(u))
            for v, distance in zip(slots, slots):
                if u < v:
                    self._num_edges -= 1
                    yield u, v, distance
        self._xy = array("d")
        self._far_xy.clear()

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
        return self._distance_slot(u, v) >= 0

    def node_ids(self) -> Iterator[int]:
        """Iterate node ids in insertion order."""
        return iter(self._adj)

    def neighbours(self, node_id: int) -> Iterator[Tuple[int, float]]:
        """Iterate (neighbour, distance) pairs of ``node_id``."""
        try:
            slots = iter(self._adj[node_id])
        except KeyError:
            raise NetworkError(f"node {node_id} does not exist") from None
        return zip(slots, slots)

    def degree(self, node_id: int) -> int:
        """Number of incident edges."""
        try:
            return len(self._adj[node_id]) >> 1
        except KeyError:
            raise NetworkError(f"node {node_id} does not exist") from None

    def edge_distance(self, u: int, v: int) -> float:
        """Distance of edge (u, v)."""
        i = self._distance_slot(u, v)
        if i < 0:
            raise NetworkError(f"edge ({u}, {v}) does not exist")
        return self._adj[u][i]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate undirected edges once each as (u, v, distance), u < v."""
        for u, adj in self._adj.items():
            slots = iter(adj)
            for v, distance in zip(slots, slots):
                if u < v:
                    yield u, v, distance

    def coords(self, node_id: int) -> Tuple[float, float]:
        """Coordinates of ``node_id``."""
        if node_id not in self._adj:
            raise NetworkError(f"node {node_id} does not exist")
        xy = self._xy
        if 0 <= node_id < len(xy) >> 1:
            i = node_id + node_id
            return xy[i], xy[i + 1]
        return self._far_xy[node_id]

    def set_coords(self, node_id: int, x: float, y: float) -> None:
        """Move a node (layout only; edge distances are untouched)."""
        if node_id not in self._adj:
            raise NetworkError(f"node {node_id} does not exist")
        self._store_xy(node_id, float(x), float(y))

    def _store_xy(self, node_id: int, x: float, y: float) -> None:
        """Write a node's coordinates where :meth:`coords` reads them.

        An id inside the dense range owns its slot (a removed id's slot is
        reused); the next dense id extends the array unless it already
        lives in the dict; any other id goes to the dict.
        """
        xy = self._xy
        dense = len(xy) >> 1
        if 0 <= node_id < dense:
            xy[2 * node_id] = x
            xy[2 * node_id + 1] = y
        elif node_id == dense and node_id not in self._far_xy:
            xy.append(x)
            xy.append(y)
        else:
            self._far_xy[node_id] = (x, y)

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
        for node_id in self._adj:
            x, y = self.coords(node_id)
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
            for neighbour in self._adj[node][::2]:
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
                for neighbour in self._adj[node][::2]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        comp.add(neighbour)
                        stack.append(neighbour)
            out.append(comp)
        return out

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) over node coordinates."""
        if not self._adj:
            raise NetworkError("empty network has no bounding box")
        points = [self.coords(node_id) for node_id in self._adj]
        xs = [c[0] for c in points]
        ys = [c[1] for c in points]
        return min(xs), min(ys), max(xs), max(ys)

    def total_edge_distance(self) -> float:
        """Sum of all edge distances."""
        return sum(d for _, _, d in self.edges())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(metric={self.metric!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
