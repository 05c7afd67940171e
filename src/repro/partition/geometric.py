"""Geometric edge bisection.

Section 3.3: "The geometric approach first coarsely partitions a network
into two by dividing a set of edges spatially such that these two result
subnets have equal numbers of edges" [8].  We sort edges by midpoint along
the axis with the larger spread and cut at the weighted median, which keeps
parts spatially contiguous — the property that makes the follow-up KL
refinement converge quickly.

Midpoints depend only on coordinates, so a partition tree computes them
once (:func:`edge_midpoints`) and every level's split reads that table
through :func:`bisect_at_median`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.graph.network import EdgeKey, RoadNetwork
from repro.partition.base import PartitionError

Point = Tuple[float, float]


def edge_midpoint(network: RoadNetwork, edge: EdgeKey) -> Point:
    """Midpoint of an edge's endpoints (the edge's spatial proxy)."""
    ux, uy = network.coords(edge[0])
    vx, vy = network.coords(edge[1])
    return (ux + vx) / 2.0, (uy + vy) / 2.0


def edge_midpoints(
    network: RoadNetwork, edges: Iterable[EdgeKey]
) -> Dict[EdgeKey, Point]:
    """:func:`edge_midpoint` of every edge in ``edges``."""
    return {edge: edge_midpoint(network, edge) for edge in edges}


def geometric_bisection(
    network: RoadNetwork,
    edges: Set[EdgeKey],
    *,
    weights: Optional[Dict[EdgeKey, float]] = None,
) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
    """Split ``edges`` spatially into two equal-weight halves.

    ``weights`` defaults to unit weight per edge (equal edge counts); the
    object-based partitioner passes object-loaded weights instead.
    """
    return bisect_at_median(edges, edge_midpoints(network, edges), weights=weights)


def bisect_at_median(
    edges: Set[EdgeKey],
    midpoints: Mapping[EdgeKey, Point],
    *,
    weights: Optional[Mapping[EdgeKey, float]] = None,
) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
    """:func:`geometric_bisection` over precomputed ``midpoints``.

    ``midpoints`` may cover more edges than ``edges`` (a whole tree's
    table); only the entries of ``edges`` are read.
    """
    if len(edges) < 2:
        raise PartitionError("cannot bisect fewer than 2 edges")

    points = [midpoints[edge] for edge in edges]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1

    # Sort with the off-axis coordinate and edge id as tie-breakers so the
    # cut is deterministic even on degenerate layouts.
    keyed = sorted(zip(xs, ys, edges) if axis == 0 else zip(ys, xs, edges))
    ordered = [key[2] for key in keyed]
    total = (
        float(len(ordered))
        if weights is None
        else sum(weights[e] for e in ordered)
    )
    left: Set[EdgeKey] = set()
    acc = 0.0
    for edge in ordered:
        if acc >= total / 2.0 and left:
            break
        left.add(edge)
        acc += 1.0 if weights is None else weights[edge]
    if len(left) == len(ordered):  # everything in one half: force a cut
        left.discard(ordered[-1])
    right = edges - left
    return left, right
