"""Row shapers of the network workloads.

The paper's LDSQs expand from one query node; production road-network
traffic is dominated by many-to-many and reachability shapes (OD cost
matrices, service-area isochrones, "nearest charger along my route").
All three ride each engine's one object sweep
(:func:`repro.core.search.object_sweep`,
:meth:`repro.core.frozen.FrozenRoad._sweep`); this module only shapes
its output.  ``ODMatrixQuery`` is one sweep per distinct source whose
"objects" are the targets — ChoosePath descends only the Rnets holding
a target as an interior node, crosses the rest on shortcuts, and the
sweep stops once every target has settled (:func:`od_entries`).
``ServiceAreaQuery`` is the radius-bounded sweep cut into breaks
(:func:`bucket_entries`), ``RouteKNNQuery`` the multi-seed, tie-draining
k-bounded one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.queries.types import (
    ODMatrixEntry,
    ResultEntry,
    ServiceAreaEntry,
    _require_distance,
    sort_result,
)

_INF = float("inf")


def od_entries(
    sources: Sequence[int],
    targets: Sequence[int],
    sweep: Callable[[int], Iterator[Tuple[float, int]]],
) -> List[ODMatrixEntry]:
    """Row-major OD cells, ``inf`` where a target is unreachable.

    ``sweep(source)`` is the engine's target sweep: it yields
    ``(distance, i)`` for the ``i``-th distinct target (first-appearance
    order) as it settles and ends once all of them are out, or when the
    source's component is exhausted.  Duplicate sources share one sweep,
    duplicate targets one column; no target means no sweep at all.
    """
    if not targets:
        return []
    column = {target: i for i, target in enumerate(dict.fromkeys(targets))}
    rows: Dict[int, List[float]] = {}
    for source in sources:
        if source not in rows:
            row = rows[source] = [_INF] * len(column)
            for distance, i in sweep(source):
                row[i] = distance
    return [
        ODMatrixEntry(source, target, rows[source][column[target]])
        for source in sources
        for target in targets
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
