"""Object placement generators.

The evaluation distributes 10–1000 objects "evenly ... over those road
networks" (Section 6); the paper also notes ROAD "can benefit more from
uneven object distribution" (footnote 3) because clustering leaves more
object-free Rnets to prune — hotels concentrate in business districts
(Section 3.2).  Both distributions are provided, plus attribute assignment
for predicate-carrying LDSQs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.generators import LegacyRandomState
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject


def place_uniform(
    network: RoadNetwork,
    count: int,
    *,
    seed: int = 0,
    attr_choices: Optional[Dict[str, Sequence[str]]] = None,
) -> ObjectSet:
    """Place ``count`` objects uniformly at random over the network's edges.

    Each object picks a random edge and a random position along it.
    ``attr_choices`` maps attribute name to the values sampled uniformly
    (e.g. ``{"type": ["restaurant", "hotel", "fuel"]}``).
    """
    rng = LegacyRandomState(seed)
    edges = sorted((u, v) for u, v, _ in network.edges())
    if not edges:
        raise ValueError("network has no edges to place objects on")
    objects = ObjectSet()
    for object_id in range(count):
        u, v = edges[rng.randint(0, len(edges))]
        distance = network.edge_distance(u, v)
        delta = rng.uniform(0.0, distance)
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
    """Place objects around a few hub nodes (hops-limited neighbourhoods).

    ``clusters`` hubs are sampled; each object lands on an edge within
    ``spread`` hops of its hub.  This is the uneven distribution that makes
    most Rnets object-free.
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    rng = LegacyRandomState(seed)
    nodes = sorted(network.node_ids())
    hubs = [nodes[i] for i in rng.choice(len(nodes), clusters)]
    pools: List[List[Tuple[int, int]]] = []
    for hub in hubs:
        pool = _edges_within_hops(network, hub, spread)
        pools.append(pool if pool else [_any_edge(network, hub)])
    objects = ObjectSet()
    for object_id in range(count):
        pool = pools[rng.randint(0, clusters)]
        u, v = pool[rng.randint(0, len(pool))]
        distance = network.edge_distance(u, v)
        delta = rng.uniform(0.0, distance)
        attrs = _sample_attrs(rng, attr_choices)
        objects.add(SpatialObject(object_id, (u, v), delta, attrs))
    return objects


def _edges_within_hops(
    network: RoadNetwork, hub: int, hops: int
) -> List[Tuple[int, int]]:
    """Edges whose endpoints are both within ``hops`` hops of ``hub``."""
    frontier = {hub}
    seen = {hub}
    for _ in range(hops):
        frontier = {
            neighbour
            for node in frontier
            for neighbour, _ in network.neighbours(node)
            if neighbour not in seen
        }
        seen |= frontier
    return sorted(
        (u, v)
        for u, v, _ in network.edges()
        if u in seen and v in seen
    )


def _any_edge(network: RoadNetwork, node: int) -> Tuple[int, int]:
    """An arbitrary edge incident to ``node`` (fallback for isolated hubs)."""
    for neighbour, _ in network.neighbours(node):
        return (node, neighbour) if node < neighbour else (neighbour, node)
    u, v, _ = next(network.edges())
    return (u, v)


def _sample_attrs(
    rng: LegacyRandomState,
    attr_choices: Optional[Dict[str, Sequence[str]]],
) -> Dict[str, str]:
    if not attr_choices:
        return {}
    return {
        key: values[rng.randint(0, len(values))]
        for key, values in sorted(attr_choices.items())
    }
