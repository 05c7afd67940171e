"""Reference FM pass: the dict-keyed formulation the library used to ship.

Kept verbatim as the differential oracle for :mod:`repro.partition.kl`,
whose integer-indexed pass must make exactly the same decisions (every
heap pop, stale re-push, balance refusal and rollback).  Not imported by
the library.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.network import EdgeKey, RoadNetwork
from repro.partition.base import PartitionError


class _BisectionState:
    """Incremental cut-node bookkeeping for a 2-way edge partition."""

    def __init__(
        self,
        left: Set[EdgeKey],
        right: Set[EdgeKey],
        weights: Optional[Dict[EdgeKey, float]],
    ) -> None:
        self.side: Dict[EdgeKey, int] = {}
        self.counts: Dict[int, List[int]] = {}
        self.part_weight = [0.0, 0.0]
        self.weights = weights
        for side, edges in ((0, left), (1, right)):
            for edge in edges:
                self.side[edge] = side
                self.part_weight[side] += self._weight(edge)
                for node in edge:
                    self.counts.setdefault(node, [0, 0])[side] += 1
        self.cut = sum(1 for c in self.counts.values() if c[0] > 0 and c[1] > 0)
        self.part_sizes = [len(left), len(right)]

    def _weight(self, edge: EdgeKey) -> float:
        return 1.0 if self.weights is None else self.weights[edge]

    def gain(self, edge: EdgeKey) -> int:
        """Cut-node reduction if ``edge`` switches sides."""
        source = self.side[edge]
        target = 1 - source
        gain = 0
        for node in edge:
            counts = self.counts[node]
            before = counts[0] > 0 and counts[1] > 0
            # After the move the node certainly touches `target`; it stays
            # cut iff it still touches `source` through another edge.
            after = counts[source] > 1
            gain += int(before) - int(after)
        return gain

    def move(self, edge: EdgeKey) -> None:
        """Switch ``edge`` to the other side, updating cut incrementally."""
        source = self.side[edge]
        target = 1 - source
        for node in edge:
            counts = self.counts[node]
            was_cut = counts[0] > 0 and counts[1] > 0
            counts[source] -= 1
            counts[target] += 1
            now_cut = counts[0] > 0 and counts[1] > 0
            self.cut += int(now_cut) - int(was_cut)
        self.side[edge] = target
        weight = self._weight(edge)
        self.part_weight[source] -= weight
        self.part_weight[target] += weight
        self.part_sizes[source] -= 1
        self.part_sizes[target] += 1

    def halves(self) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
        left = {e for e, s in self.side.items() if s == 0}
        right = {e for e, s in self.side.items() if s == 1}
        return left, right


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
    state = _BisectionState(left, right, weights)
    total_weight = state.part_weight[0] + state.part_weight[1]
    max_side_weight = (total_weight / 2.0) * (1.0 + balance_tol)

    for _ in range(max_passes):
        improved = _kl_pass(state, max_side_weight)
        if not improved:
            break
    refined_left, refined_right = state.halves()
    return refined_left, refined_right, state.cut


def _kl_pass(state: _BisectionState, max_side_weight: float) -> bool:
    """One FM pass; returns True if the cut strictly improved."""
    start_cut = state.cut
    locked: Set[EdgeKey] = set()
    heap: List[Tuple[int, EdgeKey]] = [
        (-state.gain(edge), edge) for edge in state.side
    ]
    heapq.heapify(heap)

    moves: List[EdgeKey] = []
    cut_after_move: List[int] = []

    while heap:
        neg_gain, edge = heapq.heappop(heap)
        if edge in locked:
            continue
        current_gain = state.gain(edge)
        if -neg_gain != current_gain:
            heapq.heappush(heap, (-current_gain, edge))  # stale entry
            continue
        source = state.side[edge]
        target = 1 - source
        weight = state._weight(edge)
        if state.part_sizes[source] <= 1:
            continue  # a half may never become empty
        if state.part_weight[target] + weight > max_side_weight:
            continue  # move would break balance
        # Neighbouring edges' gains change after a move; the stale-entry
        # check on pop refreshes them lazily, so no eager update is needed.
        state.move(edge)
        locked.add(edge)
        moves.append(edge)
        cut_after_move.append(state.cut)

    if not moves:
        return False

    best_index = min(range(len(moves)), key=lambda i: cut_after_move[i])
    if cut_after_move[best_index] >= start_cut:
        # No prefix beat the starting cut: roll back the whole pass.
        for edge in reversed(moves):
            state.move(edge)
        return False
    # Roll back the moves after the best prefix.
    for edge in reversed(moves[best_index + 1 :]):
        state.move(edge)
    return state.cut < start_cut
