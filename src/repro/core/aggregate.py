"""Aggregate nearest-neighbour queries on ROAD (extension).

The paper's conclusion names "algorithms to support LDSQs other than those
discussed" as future work; aggregate NN queries [19] are the natural next
LDSQ: given several query nodes (a group of friends, a delivery fleet),
find the k objects minimising an aggregate of their network distances —
``sum`` (total travel), ``max`` (fairness), or ``min`` (anyone-can-go).

Algorithm: one incremental ROAD expansion per query node
(:func:`repro.core.search.iter_nearest_objects`), advanced in lockstep —
always the expansion with the smallest frontier radius.  An object is
*finalised* once every expansion has reported it.  Unseen distances are
lower-bounded by the expansion's current radius, giving a sound
termination test: stop when the k-th best finalised aggregate cannot be
beaten by any partially-seen or unseen object.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.association_directory import AssociationDirectory
from repro.core.route_overlay import RouteOverlay
from repro.core.search import SearchStats, iter_nearest_objects
from repro.queries.types import ANY, Predicate, ResultEntry

#: Supported aggregate functions.
AGGREGATES: Dict[str, Callable[[Sequence[float]], float]] = {
    "sum": sum,
    "max": max,
    "min": min,
}


class _Expansion:
    """One query node's lazily-advanced expansion with a peekable head."""

    __slots__ = ("_iter", "head", "radius")

    def __init__(self, it: Iterator[Tuple[float, int]]) -> None:
        self._iter = it
        self.head: Optional[Tuple[float, int]] = None
        self.radius = 0.0
        self.advance()

    @property
    def exhausted(self) -> bool:
        return self.head is None

    def advance(self) -> Optional[Tuple[float, int]]:
        """Consume the current head; pre-fetch the next object."""
        consumed = self.head
        try:
            self.head = next(self._iter)
            self.radius = self.head[0]
        except StopIteration:
            self.head = None
            self.radius = math.inf
        return consumed

    def close(self) -> None:
        """Close the underlying iterator deterministically.

        Generator close is when the engines flush the frontier-boundary
        footprint into ``SearchStats`` — leaving it to garbage collection
        would make the visit sets timing-dependent.
        """
        close = getattr(self._iter, "close", None)
        if close is not None:
            close()


def aggregate_knn(
    overlay: RouteOverlay,
    directory: AssociationDirectory,
    query_nodes: Sequence[int],
    k: int,
    agg: str = "sum",
    predicate: Predicate = ANY,
    stats: Optional[SearchStats] = None,
    abstracts=None,
) -> List[ResultEntry]:
    """The k objects minimising ``agg`` of distances from ``query_nodes``.

    Objects unreachable from some query node have that distance = ∞ and are
    excluded for ``sum``/``max`` (included for ``min`` when reachable from
    anyone).  Returns :class:`ResultEntry` rows whose ``distance`` is the
    aggregate value, sorted ascending.  A shared
    :class:`~repro.core.search.AbstractCache` (``abstracts``) lets batch
    callers reuse Rnet-pruning lookups across expansions and queries.
    """
    return aggregate_knn_generic(
        lambda node: iter_nearest_objects(
            overlay, directory, node, predicate, stats, abstracts
        ),
        query_nodes,
        k,
        agg,
    )


def aggregate_knn_generic(
    expand: Callable[[int], Iterator[Tuple[float, int]]],
    query_nodes: Sequence[int],
    k: int,
    agg: str = "sum",
) -> List[ResultEntry]:
    """The lockstep-expansion core, agnostic of the serving path.

    ``expand(node)`` must lazily yield ``(distance, object_id)`` in
    non-descending distance — the charged
    :func:`~repro.core.search.iter_nearest_objects` or the compiled
    :meth:`~repro.core.frozen.FrozenRoad.iter_nearest_objects`.  Both
    yield identical sequences, so both serving paths return identical
    aggregate answers.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not query_nodes:
        raise ValueError("need at least one query node")
    if agg not in AGGREGATES:
        raise ValueError(f"agg must be one of {sorted(AGGREGATES)}, got {agg!r}")
    combine = AGGREGATES[agg]
    m = len(query_nodes)

    expansions = [_Expansion(expand(node)) for node in query_nodes]
    try:
        return _lockstep(expansions, combine, agg, k, m)
    finally:
        for expansion in expansions:
            expansion.close()


def _lockstep(
    expansions: List[_Expansion],
    combine: Callable[[Sequence[float]], float],
    agg: str,
    k: int,
    m: int,
) -> List[ResultEntry]:
    partials: Dict[int, Dict[int, float]] = {}
    finalised: Dict[int, float] = {}
    ranked_values: List[float] = []  # finalised.values(), kept sorted

    def can_stop(radii: List[float]) -> bool:
        """Termination: nothing pending can beat the current k-th best.

        The pending objects' lower bounds are only computed once the
        unseen bound (the radii's aggregate) no longer beats the k-th
        best, which is infinite until k objects are final.
        """
        kth = ranked_values[k - 1] if len(ranked_values) >= k else math.inf
        if combine(radii) < kth:
            return False
        # Sound lower bound on each pending object's final aggregate.
        return all(
            combine([known.get(i, radii[i]) for i in range(m)]) >= kth
            for known in partials.values()
        )

    def finalise(object_id: int, value: float) -> None:
        finalised[object_id] = value
        insort(ranked_values, value)
        del partials[object_id]

    while True:
        if can_stop([e.radius for e in expansions]):
            break
        # Advance the expansion with the smallest frontier radius.
        index = min(
            (i for i, e in enumerate(expansions) if not e.exhausted),
            key=lambda i: expansions[i].radius,
            default=None,
        )
        if index is None:
            break
        item = expansions[index].advance()
        if item is None:
            continue
        distance, object_id = item
        if object_id in finalised:
            continue
        known = partials.setdefault(object_id, {})
        known[index] = distance
        if agg == "min":
            # A later expansion can still see the object closer, but only
            # while its radius is below the best sighting; finalise once no
            # unseen expansion can undercut it.
            best = min(known.values())
            if all(
                expansions[i].radius >= best
                for i in range(m)
                if i not in known
            ):
                finalise(object_id, best)
        elif len(known) == m:
            finalise(object_id, combine([known[i] for i in range(m)]))

    # `min` stragglers: partially-seen objects are still valid candidates.
    if agg == "min":
        for object_id, known in partials.items():
            if object_id not in finalised:
                finalised[object_id] = min(known.values())

    ranked = sorted(
        (value, object_id)
        for object_id, value in finalised.items()
        if math.isfinite(value)
    )
    return [ResultEntry(object_id, value) for value, object_id in ranked[:k]]
