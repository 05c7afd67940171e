"""Query workload generation.

The evaluation issues "100 queries issued at random positions" per
configuration (Section 6.3) and reports average processing time.  These
helpers sample query nodes and build kNN / range workloads deterministically
from a seed.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.graph.generators import LegacyRandomState
from repro.graph.network import RoadNetwork
from repro.queries.types import ANY, KNNQuery, Predicate, RangeQuery


def random_query_nodes(
    network: RoadNetwork, count: int, *, seed: int = 0
) -> List[int]:
    """Sample ``count`` query nodes uniformly (with replacement)."""
    rng = LegacyRandomState(seed)
    nodes = sorted(network.node_ids())
    return [nodes[i] for i in rng.randint(0, len(nodes), size=count)]


def knn_workload(
    network: RoadNetwork,
    count: int,
    k: int,
    *,
    seed: int = 0,
    predicate: Predicate = ANY,
) -> List[KNNQuery]:
    """``count`` kNN queries at random nodes."""
    return [
        KNNQuery(node, k, predicate)
        for node in random_query_nodes(network, count, seed=seed)
    ]


def range_workload(
    network: RoadNetwork,
    count: int,
    radius: float,
    *,
    seed: int = 0,
    predicate: Predicate = ANY,
) -> List[RangeQuery]:
    """``count`` range queries at random nodes with a fixed radius."""
    return [
        RangeQuery(node, radius, predicate)
        for node in random_query_nodes(network, count, seed=seed)
    ]


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
    """A server-shaped batch: kNN and range queries interleaved.

    Draws ``count`` queries at random nodes, each kNN with probability
    ``knn_fraction`` (range otherwise) with a predicate cycled from
    ``predicates`` — the input shape :meth:`ROAD.execute_many` and
    :meth:`FrozenRoad.execute_many` are built for, where few distinct
    predicates amortise the shared predicate caches across many queries.
    """
    if not predicates:
        raise ValueError("need at least one predicate")
    rng = LegacyRandomState(seed)
    nodes = random_query_nodes(network, count, seed=seed)
    queries: List[object] = []
    for i, node in enumerate(nodes):
        predicate = predicates[i % len(predicates)]
        if rng.random_sample() < knn_fraction:
            queries.append(KNNQuery(node, k, predicate))
        else:
            queries.append(RangeQuery(node, radius, predicate))
    return queries
