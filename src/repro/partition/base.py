"""Edge-partition primitives shared by all partitioners.

Rnet partitioning (Definition 4) splits an Rnet's *edges* into disjoint
child edge sets; nodes incident to edges of several children — or to edges
outside the partitioned Rnet — become border nodes.  These helpers compute
incident/border node sets and validate the three conditions of Definition 4.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set

from repro.graph.network import EdgeKey


class PartitionError(Exception):
    """Raised when a partition violates Definition 4."""


def incident_nodes(edges: Iterable[EdgeKey]) -> Set[int]:
    """All endpoints of the given edges (``N_R`` of Definition 1)."""
    nodes: Set[int] = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    return nodes


def cut_nodes(parts: Sequence[Set[EdgeKey]]) -> Set[int]:
    """Nodes incident to edges of two or more parts.

    For a full partitioning of a parent Rnet these are exactly the border
    nodes the children introduce among themselves (Definition 4, cond. 3).
    """
    owner: Dict[int, int] = {}
    cut: Set[int] = set()
    for index, part in enumerate(parts):
        for node in incident_nodes(part):
            previous = owner.setdefault(node, index)
            if previous != index:
                cut.add(node)
    return cut


def validate_partition(
    parent_edges: Set[EdgeKey], parts: Sequence[Set[EdgeKey]]
) -> None:
    """Check Definition 4's structural conditions; raise on violation.

    1. child edge sets are pairwise disjoint,
    2. their union is exactly the parent edge set,
    3. every part is non-empty and there are at least two parts.
    (Condition 2 of the definition — endpoints belong to the child's node
    set — holds by construction since node sets are derived from edges.)
    """
    if len(parts) < 2:
        raise PartitionError(f"need >= 2 parts, got {len(parts)}")
    union: Set[EdgeKey] = set()
    total = 0
    for index, part in enumerate(parts):
        if not part:
            raise PartitionError(f"part {index} is empty")
        total += len(part)
        union |= part
    if total != len(union):
        raise PartitionError("child edge sets overlap")
    if union != parent_edges:
        missing = parent_edges - union
        extra = union - parent_edges
        raise PartitionError(
            f"children do not cover parent: missing={len(missing)}, "
            f"extra={len(extra)}"
        )


def balance_ratio(parts: Sequence[Set[EdgeKey]]) -> float:
    """max part size / ideal size — 1.0 is perfectly balanced."""
    sizes = [len(part) for part in parts]
    ideal = sum(sizes) / len(sizes)
    return max(sizes) / ideal if ideal else 1.0
