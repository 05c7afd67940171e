"""Recursive Rnet partitioning.

Section 3.3: "We set p_i to be power of 2 (i.e., p_i = 2^x ...) and
recursively apply this binary partitioning until p_i Rnets are formed" —
each binary step being geometric bisection followed by KL refinement.  The
result here is a tree of edge sets; :mod:`repro.core.rnet` turns it into the
Rnet hierarchy with border nodes per Definitions 1 and 4.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.graph.network import EdgeKey, RoadNetwork
from repro.partition.base import PartitionError, validate_partition
from repro.partition.geometric import (
    Point,
    bisect_at_median,
    edge_midpoints,
    geometric_bisection,
)
from repro.partition.kl import refine_bisection

#: A bisector takes (network, edges) and returns two non-empty halves.
Bisector = Callable[[RoadNetwork, Set[EdgeKey]], "tuple[Set[EdgeKey], Set[EdgeKey]]"]


@dataclass
class PartitionNode:
    """One Rnet-to-be: an edge set and its child partitions."""

    part_id: int
    level: int
    edges: FrozenSet[EdgeKey]
    children: List["PartitionNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True for finest Rnets (no further partitioning)."""
        return not self.children

    def descendants(self) -> List["PartitionNode"]:
        """This node and every node below it, depth-first."""
        out = [self]
        for child in self.children:
            out.extend(child.descendants())
        return out

    def leaves(self) -> List["PartitionNode"]:
        """All finest partitions under this node."""
        return [node for node in self.descendants() if node.is_leaf]


class _KLBisector:
    """The bisector :func:`kl_bisector` returns.

    Called as a plain :data:`Bisector` it computes the midpoints of the
    edges it is given; :func:`build_partition_tree` instead calls
    :meth:`split` with the table it computed once for the whole tree.
    """

    def __init__(
        self,
        weights: Optional[Dict[EdgeKey, float]],
        balance_tol: float,
        max_passes: int,
    ) -> None:
        self.weights = weights
        self.balance_tol = balance_tol
        self.max_passes = max_passes

    def __call__(
        self, network: RoadNetwork, edges: Set[EdgeKey]
    ) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
        return self.split(network, edges, edge_midpoints(network, edges))

    def split(
        self,
        network: RoadNetwork,
        edges: Set[EdgeKey],
        midpoints: Mapping[EdgeKey, Point],
    ) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
        left, right = bisect_at_median(edges, midpoints, weights=self.weights)
        left, right, _ = refine_bisection(
            network,
            left,
            right,
            weights=self.weights,
            balance_tol=self.balance_tol,
            max_passes=self.max_passes,
        )
        return left, right


def kl_bisector(
    *, weights: Optional[Dict[EdgeKey, float]] = None,
    balance_tol: float = 0.1,
    max_passes: int = 8,
) -> Bisector:
    """The paper's bisector: geometric split + KL border-node refinement."""
    return _KLBisector(weights, balance_tol, max_passes)


def geometric_bisector() -> Bisector:
    """Geometric split only (no KL) — the ablation baseline partitioner."""

    def bisect(network: RoadNetwork, edges: Set[EdgeKey]):
        return geometric_bisection(network, edges)

    return bisect


def build_partition_tree(
    network: RoadNetwork,
    *,
    levels: int,
    fanout: int = 4,
    bisector: Optional[Bisector] = None,
    min_edges: int = 2,
) -> PartitionNode:
    """Partition a network into an ``levels``-deep tree of edge sets.

    Parameters
    ----------
    network:
        The road network to partition (level-0 Rnet).
    levels:
        Number of partitioning levels ``l``; level 0 is the whole network.
    fanout:
        Children per Rnet ``p`` — must be a power of two (Section 3.3).
    bisector:
        Binary splitting strategy; defaults to geometric + KL.
    min_edges:
        Parts with fewer edges stop splitting early (a 1-edge Rnet cannot
        be bisected), producing a ragged but valid hierarchy.

    Returns
    -------
    The root :class:`PartitionNode` (level 0, all edges).
    """
    if levels < 1:
        raise PartitionError("levels must be >= 1")
    if fanout < 2 or fanout & (fanout - 1):
        raise PartitionError(f"fanout must be a power of two, got {fanout}")
    if network.num_edges < 1:
        raise PartitionError("cannot partition an empty network")
    bisect = bisector if bisector is not None else kl_bisector()
    ids = itertools.count()

    all_edges = frozenset((u, v) for u, v, _ in network.edges())
    if isinstance(bisect, _KLBisector):
        # One midpoint table for every level, instead of one per split.
        bisect = functools.partial(
            bisect.split, midpoints=edge_midpoints(network, all_edges)
        )
    root = PartitionNode(next(ids), 0, all_edges)
    frontier = [root]
    for level in range(1, levels + 1):
        next_frontier: List[PartitionNode] = []
        for node in frontier:
            if len(node.edges) < max(min_edges, 2):
                continue  # too small to split further; stays a leaf
            parts = _split_into(network, set(node.edges), fanout, bisect)
            validate_partition(set(node.edges), parts)
            for part in parts:
                child = PartitionNode(next(ids), level, frozenset(part))
                node.children.append(child)
                next_frontier.append(child)
        frontier = next_frontier
        if not frontier:
            break
    return root


def _split_into(
    network: RoadNetwork,
    edges: Set[EdgeKey],
    fanout: int,
    bisect: Bisector,
) -> List[Set[EdgeKey]]:
    """Recursive binary splitting of ``edges`` into up to ``fanout`` parts."""
    parts: List[Set[EdgeKey]] = [edges]
    while len(parts) < fanout:
        # Split the largest part next so sizes stay balanced even when some
        # part becomes too small to bisect.
        parts.sort(key=len, reverse=True)
        largest = parts[0]
        if len(largest) < 2:
            break
        left, right = bisect(network, largest)
        if not left or not right:
            raise PartitionError("bisector returned an empty half")
        parts = [left, right] + parts[1:]
    return parts
