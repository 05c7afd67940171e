"""Kernighan–Lin refinement of an edge bisection.

Section 3.3: the "KL algorithm is then used to fine tune the two result
Rnets by exchanging edges between them until further exchanges do not reduce
the number of border nodes" [12].  We implement the linear-time
Fiduccia–Mattheyses formulation of KL passes — single edge moves chosen by
gain, every edge moved at most once per pass, rollback to the best prefix —
which optimises exactly the paper's objective: the number of *border nodes*
(nodes incident to edges of both halves) under an edge-count balance
constraint.

The pass runs on integers.  The bisection's edges are ranked by their
``EdgeKey`` tuple, and sides, endpoint indices, per-node side counts and
weights live in flat lists indexed by rank and node index.  A heap entry is
the single int ``(2 - gain) * m + rank``: a gain lies in [-2, 2], so entries
pop in exactly the order of ``(-gain, edge)`` — highest gain first, ties to
the smaller edge.  Gains are refreshed lazily: a popped entry whose gain went
stale is re-pushed with the current one.  A move that would empty a half or
push the target half past ``balance_tol`` is refused, and the refused entry
is dropped for the rest of the pass.  The best prefix is the *first* minimum
of the cut after each move, kept only if it is strictly below the pass's
starting cut; otherwise the whole pass rolls back.

**Early stop.**  An edge the pass has moved (locked) or refused cannot change
side again before the pass ends.  A node with such *frozen* edges on both
sides therefore stays cut at every later prefix, so the number of those
nodes is a lower bound on every later cut.  Once it reaches the best cut seen
so far (the starting cut included), no later prefix can become the first
strict minimum: the pass stops popping and rolls back to its best prefix,
which is the state the full pass ends in.  The stop is taken only while the
part-weight sums are exact (unit or integral weights), because the next
pass's balance test reads sums that a float weight moved forward and back
need not restore bit for bit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.network import EdgeKey, RoadNetwork
from repro.partition.base import PartitionError


def refine_bisection(
    network: RoadNetwork,
    left: Set[EdgeKey],
    right: Set[EdgeKey],
    *,
    weights: Optional[Dict[EdgeKey, float]] = None,
    balance_tol: float = 0.1,
    max_passes: int = 8,
) -> Tuple[Set[EdgeKey], Set[EdgeKey], int]:
    """Refine a bisection to minimise border nodes.

    Parameters
    ----------
    network:
        The network the edges belong to (unused beyond sanity checks; the
        cut objective only needs edge endpoints).
    left, right:
        Initial halves (typically from geometric bisection).
    weights:
        Optional per-edge balance weights (object-based partitioning).
    balance_tol:
        Each half may exceed the ideal half-weight by this fraction.
    max_passes:
        Upper bound on KL passes; iteration stops earlier when a full pass
        yields no improvement ("until further exchanges do not reduce the
        number of border nodes").

    Returns
    -------
    (left, right, border_count):
        The refined halves and their cut-node count.
    """
    if not left or not right:
        raise PartitionError("both halves must be non-empty")
    # ``order`` is the caller's iteration order (left, then right): part
    # weights accumulate in it and the refined halves are rebuilt in it.
    order = [*left, *right]
    ranked = sorted(order)
    m = len(ranked)
    rank = {edge: r for r, edge in enumerate(ranked)}
    order_rank = [rank[edge] for edge in order]

    us = [edge[0] for edge in ranked]
    vs = [edge[1] for edge in ranked]
    node_index = {node: i for i, node in enumerate({*us, *vs})}
    ends_u = [node_index[u] for u in us]
    ends_v = [node_index[v] for v in vs]

    side = [0] * m
    for r in order_rank[len(left) :]:
        side[r] = 1
    counts = ([0] * len(node_index), [0] * len(node_index))
    for r, s in enumerate(side):
        count = counts[s]
        count[ends_u[r]] += 1
        count[ends_v[r]] += 1
    cut = sum(1 for c0, c1 in zip(*counts) if c0 and c1)

    weight = [1.0] * m if weights is None else [weights[e] for e in ranked]
    part_weight = [0.0, 0.0]
    for r in order_rank:
        part_weight[side[r]] += weight[r]
    part_size = [len(left), len(right)]
    half_weight = (part_weight[0] + part_weight[1]) / 2.0
    max_side_weight = half_weight * (1.0 + balance_tol)
    early_stop = weights is None or _exact_sums(weight)

    for _ in range(max_passes):
        start = cut
        cut = _fm_pass(
            side, ends_u, ends_v, weight, counts, part_weight, part_size,
            cut, max_side_weight, early_stop,
        )
        if cut >= start:
            break
    refined_left = {e for e, r in zip(order, order_rank) if side[r] == 0}
    refined_right = {e for e, r in zip(order, order_rank) if side[r] == 1}
    return refined_left, refined_right, cut


def _exact_sums(weight: List[float]) -> bool:
    """True when every part-weight sum is exact: integral, small weights."""
    return sum(abs(w) for w in weight) < 2**52 and all(
        float(w).is_integer() for w in weight
    )


def _fm_pass(
    side: List[int],
    ends_u: List[int],
    ends_v: List[int],
    weight: List[float],
    counts: Tuple[List[int], List[int]],
    part_weight: List[float],
    part_size: List[int],
    cut: int,
    max_side_weight: float,
    early_stop: bool,
) -> int:
    """One FM pass over rank-indexed state; returns the cut after it.

    The lists are updated in place.  The returned cut is below ``cut`` iff
    the pass improved it; otherwise every move has been rolled back.
    """
    m = len(side)
    count0, count1 = counts
    # An endpoint's share of the gain of an edge on side s: is it cut now
    # (it touches the other side), minus does it stay cut (a second edge on
    # side s) — edge r itself is counted on its own side.
    share = (
        [(c1 > 0) - (c0 > 1) for c0, c1 in zip(count0, count1)],
        [(c0 > 0) - (c1 > 1) for c0, c1 in zip(count0, count1)],
    )
    heap = [
        (2 - share[s][a] - share[s][b]) * m + r
        for r, s, a, b in zip(range(m), side, ends_u, ends_v)
    ]
    heapify(heap)
    pop = heappop
    push = heappush

    start = best = cut
    moves: List[int] = []
    cut_after_move: List[int] = []
    # Bit 1 << s of frozen[node]: the node has a frozen edge on side s.
    frozen = bytearray(len(count0))
    frozen_cut = 0
    while heap:
        key = pop(heap)
        r = key % m
        a = ends_u[r]
        b = ends_v[r]
        source = side[r]
        if source:
            mine, other = count1, count0
        else:
            mine, other = count0, count1
        gain = (other[a] > 0) - (mine[a] > 1) + (other[b] > 0) - (mine[b] > 1)
        fresh = (2 - gain) * m + r
        if fresh != key:
            push(heap, fresh)  # stale entry
            continue
        target = 1 - source
        if part_size[source] <= 1 or part_weight[target] + weight[r] > max_side_weight:
            stays = source  # refused: empty half or broken balance
        else:
            mine[a] -= 1
            mine[b] -= 1
            other[a] += 1
            other[b] += 1
            cut -= gain
            side[r] = target
            w = weight[r]
            part_weight[source] -= w
            part_weight[target] += w
            part_size[source] -= 1
            part_size[target] += 1
            moves.append(r)
            cut_after_move.append(cut)
            if cut < best:
                best = cut
            stays = target
        if early_stop:
            bit = 1 << stays
            for node in (a, b):
                flags = frozen[node]
                if not flags & bit:
                    frozen[node] = flags | bit
                    if flags:
                        frozen_cut += 1
            if frozen_cut >= best:
                break

    if not moves:
        return cut
    best_index = cut_after_move.index(min(cut_after_move))
    keep = best_index + 1 if cut_after_move[best_index] < start else 0
    for r in reversed(moves[keep:]):  # the move above, undone
        source = side[r]
        target = 1 - source
        mine = counts[source]
        other = counts[target]
        mine[ends_u[r]] -= 1
        mine[ends_v[r]] -= 1
        other[ends_u[r]] += 1
        other[ends_v[r]] += 1
        side[r] = target
        w = weight[r]
        part_weight[source] -= w
        part_weight[target] += w
        part_size[source] -= 1
        part_size[target] += 1
    return cut_after_move[keep - 1] if keep else start
