"""The OD-matrix kernel and the row shapers of the network workloads.

The paper's LDSQs expand from one query node; production road-network
traffic is dominated by many-to-many and reachability shapes (OD cost
matrices, service-area isochrones, "nearest charger along my route").
Two of the three are object searches and ride each engine's one sweep
(:func:`repro.core.search.object_sweep`,
:meth:`repro.core.frozen.FrozenRoad._sweep`): ``ServiceAreaQuery`` is
its radius-bounded form cut into breaks by :func:`bucket_entries`,
``RouteKNNQuery`` its multi-seed, tie-draining k-bounded form.

The third is not, and stays its own loop here on purpose:
:func:`od_matrix_generic` is a lane-tagged multi-source Dijkstra over
the flat physical adjacency — one shared heap carries entries for all S
source lanes, each lane settling its targets and retiring as soon as the
last one is found.  It looks up no objects, consults no Rnet abstract
and takes no shortcut, so it shares no decision with the object sweep;
folding it in would make that sweep branch on its caller at every pop.
Its expansion step is a callable the engine supplies (the charged side
reads ``overlay.neighbours``, the frozen side one contiguous CSR span);
final distances are push-order independent, so the two agree
byte-for-byte even though they enumerate edges in different orders.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.search import SearchStats
from repro.queries.types import (
    ODMatrixEntry,
    ResultEntry,
    ServiceAreaEntry,
    _require_distance,
    sort_result,
)

_INF = float("inf")

#: One engine-supplied flat-adjacency step for the OD sweep:
#: ``expand_flat(node, distance, push)`` calls ``push(neighbour,
#: distance + weight)`` for every physical edge out of ``node``.
ExpandFlat = Callable[[int, float, Callable[[int, float], None]], None]


def od_matrix_generic(
    sources: Sequence[int],
    targets: Sequence[int],
    expand_flat: ExpandFlat,
    *,
    stats: Optional[SearchStats] = None,
    node_ids: Optional[Sequence[int]] = None,
) -> List[List[float]]:
    """Distance rows (one per source, one cell per target), ``inf`` when
    unreachable.

    One shared heap carries ``(distance, seq, lane, node)`` for all S
    source lanes at once; a lane retires the moment its last target
    settles, and the sweep stops when every lane has.  Because Dijkstra's
    settled distances do not depend on relaxation order, any engine
    enumerating the same physical edge multiset produces identical rows.
    """
    rows = [[_INF] * len(targets) for _ in sources]
    if not sources or not targets:
        return rows
    target_slots: Dict[int, List[int]] = {}
    for j, target in enumerate(targets):
        target_slots.setdefault(target, []).append(j)
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for lane, node in enumerate(sources):
        heap.append((0.0, seq, lane, node))
        seq += 1
    heapq.heapify(heap)
    visited: List[Set[int]] = [set() for _ in sources]
    remaining = [len(targets)] * len(sources)
    active = len(sources)
    while heap and active:
        distance, _, lane, node = heapq.heappop(heap)
        if not remaining[lane]:
            continue  # stale entry of a retired lane
        seen = visited[lane]
        if node in seen:
            continue
        seen.add(node)
        if stats is not None:
            stats.nodes_popped += 1
        slots = target_slots.get(node)
        if slots is not None:
            row = rows[lane]
            for j in slots:
                row[j] = distance
            remaining[lane] -= len(slots)
            if not remaining[lane]:
                active -= 1
                continue  # lane done: nothing left worth expanding

        def push(target: int, new_distance: float, _lane: int = lane) -> None:
            nonlocal seq
            if target not in visited[_lane]:
                heapq.heappush(heap, (new_distance, seq, _lane, target))
                seq += 1
                if stats is not None:
                    stats.edges_relaxed += 1

        expand_flat(node, distance, push)
    if stats is not None:
        examined: Set[int] = {node for _, _, _, node in heap}
        for seen in visited:
            examined.update(seen)
        if node_ids is None:
            stats.visited_nodes.update(examined)
        else:
            stats.visited_nodes.update(node_ids[item] for item in examined)
    return rows


def od_entries(
    sources: Sequence[int],
    targets: Sequence[int],
    rows: Sequence[Sequence[float]],
) -> List[ODMatrixEntry]:
    """Rows flattened to the wire/result shape: row-major cells."""
    return [
        ODMatrixEntry(source, target, rows[i][j])
        for i, source in enumerate(sources)
        for j, target in enumerate(targets)
    ]


def normalize_breaks(breaks: Sequence[float]) -> Tuple[float, ...]:
    """Validated ascending break cut-offs.

    The engines' method-level twin of ``ServiceAreaQuery``'s dataclass
    validation (one rule set, shared): every break must be a finite
    non-negative number, at least one is required, and unsorted input is
    normalised to ascending order.
    """
    cleaned = tuple(sorted(_require_distance(b, field="break") for b in breaks))
    if not cleaned:
        raise ValueError("need at least one break")
    return cleaned


def bucket_entries(
    entries: Sequence[ResultEntry], breaks: Sequence[float]
) -> List[ServiceAreaEntry]:
    """Range answers in canonical (distance, object id) order, each
    tagged with the index of the first break covering it.

    ``breaks`` must be sorted ascending (the query dataclass normalises)
    and the entries already cut at ``max(breaks)`` by the sweep's radius.
    """
    return [
        ServiceAreaEntry(
            entry.object_id, entry.distance, bisect_left(breaks, entry.distance)
        )
        for entry in sort_result(list(entries))
    ]
