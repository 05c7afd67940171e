"""Location-dependent spatial queries (LDSQs) and network workloads.

Section 3.1: "Each LDSQ is specified with a distance condition D and
attribute predicate A" — an object qualifies if its network distance from
the query node satisfies ``D`` and its attributes satisfy ``A`` (e.g.
``o.type = 'seafood'``).  The two common LDSQs the paper evaluates are kNN
queries (distance condition: among the k smallest) and range queries
(distance condition: within radius r).

Beyond the paper's menu, the network-analysis workloads are served the
same way: :class:`ODMatrixQuery` (many-to-many cost matrices),
:class:`ServiceAreaQuery` (multi-break isochrones) and
:class:`RouteKNNQuery` (k best objects by detour distance from a route).

A query kind is declared here once.  Each class in :data:`QUERY_TYPES`
names its ``kind``, which is both its wire tag and the name of the
executor method that answers it (``KNNQuery.kind == "knn"`` is answered
by ``executor.knn``); its fields, in declaration order, are that
method's positional arguments and its wire payload's keys.  The
dispatch protocol (:mod:`repro.core.dispatch`) and the JSON codec
(:mod:`repro.serving.wire`) read both from the dataclass itself.  The
maintenance writes are declared the same way, in
:data:`repro.queries.writes.WRITE_TYPES`.

Every query and write dataclass validates through one small set of
shared helpers (`_require_node` and friends) so the rules are identical
everywhere: node and object ids are ints with bools rejected (matching
the wire codecs' bool-rejecting integer rule), counts are ints >= 1, and
radii/breaks/edge distances are finite non-negative numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Tuple, Type, Union

from repro.objects.model import SpatialObject


def _require_node(value: object, *, field: str = "node") -> int:
    """An integer node id; bools are rejected (they are int subclasses)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer node id, got {value!r}")
    return value


def _require_nodes(
    values: Iterable[object], *, field: str, allow_empty: bool = False
) -> Tuple[int, ...]:
    """A tuple of node ids, non-empty unless ``allow_empty``."""
    nodes = tuple(values)
    if not nodes and not allow_empty:
        raise ValueError(f"need at least one {field} node")
    for node in nodes:
        _require_node(node, field=field)
    return nodes  # type: ignore[return-value]


def _require_int(value: object, *, field: str) -> int:
    """An integer (an object id, ...); bools are rejected."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _require_count(value: object, *, field: str = "k") -> int:
    """An integer count >= 1; bools are rejected."""
    count = _require_int(value, field=field)
    if count < 1:
        raise ValueError(f"{field} must be >= 1, got {value}")
    return count


def _require_str(value: object, *, field: str) -> str:
    """A string (a directory name, ...)."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _require_attrs(value: object) -> Dict[str, str]:
    """Object attributes: strings mapped to strings, as a fresh dict."""
    if not isinstance(value, Mapping) or not all(
        isinstance(x, str) for item in value.items() for x in item
    ):
        raise ValueError(f"attrs must map strings to strings, got {value!r}")
    return dict(value)


def _require_distance(value: object, *, field: str) -> float:
    """A finite non-negative number (radius, break, ...), as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{field} must be a number, got {value!r}")
    number = float(value)
    if math.isnan(number):
        raise ValueError(f"{field} must be a number, got {value!r}")
    if number < 0:
        raise ValueError(f"{field} must be >= 0, got {value}")
    if math.isinf(number):
        raise ValueError(f"{field} must be finite, got {value}")
    return number


@dataclass(frozen=True)
class Predicate:
    """Attribute predicate ``A``: conjunction of attribute equalities.

    ``required`` is stored as a sorted tuple of (key, value) pairs so
    predicates are hashable and order-independent.  An empty predicate
    matches every object.
    """

    required: Tuple[Tuple[str, str], ...] = ()

    @staticmethod
    def of(**attrs: str) -> "Predicate":
        """Predicate requiring ``key == value`` for every keyword argument."""
        return Predicate(tuple(sorted(attrs.items())))

    @staticmethod
    def from_mapping(attrs: Mapping[str, str]) -> "Predicate":
        """Predicate from a mapping of required attribute values."""
        return Predicate(tuple(sorted(attrs.items())))

    @property
    def is_unconstrained(self) -> bool:
        """True if every object matches."""
        return not self.required

    def as_dict(self) -> Dict[str, str]:
        """Required attributes as a plain dict."""
        return dict(self.required)

    def matches(self, obj: SpatialObject) -> bool:
        """True if the object satisfies every required attribute."""
        return all(obj.attrs.get(key) == value for key, value in self.required)


#: The unconstrained predicate (all objects are "of interest").
ANY = Predicate()


@dataclass(frozen=True)
class KNNQuery:
    """k-nearest-neighbour LDSQ issued at a network node.

    Example from the paper's introduction — Q2: "find hotels within
    10-minute walk" is a range query; "find the nearest bus station" is a
    1-NN query.
    """

    kind: ClassVar[str] = "knn"

    node: int
    k: int
    predicate: Predicate = ANY

    def __post_init__(self) -> None:
        _require_node(self.node)
        _require_count(self.k)


@dataclass(frozen=True)
class RangeQuery:
    """Range LDSQ: all matching objects within network distance ``radius``."""

    kind: ClassVar[str] = "range"

    node: int
    radius: float
    predicate: Predicate = ANY

    def __post_init__(self) -> None:
        _require_node(self.node)
        object.__setattr__(
            self, "radius", _require_distance(self.radius, field="radius")
        )


#: Aggregate functions an :class:`AggregateKNNQuery` may request (the
#: callables live in :data:`repro.core.aggregate.AGGREGATES`).
AGGREGATE_FUNCTIONS: Tuple[str, ...] = ("sum", "max", "min")


@dataclass(frozen=True)
class AggregateKNNQuery:
    """Aggregate kNN LDSQ issued at several network nodes at once.

    The k objects minimising ``agg`` (``"sum"``, ``"max"`` or ``"min"``)
    of their network distances from ``nodes`` — a group of friends picking
    a restaurant, a fleet picking a depot.  Result ``distance`` fields
    carry the aggregate values.
    """

    kind: ClassVar[str] = "aggregate_knn"

    nodes: Tuple[int, ...]
    k: int
    agg: str = "sum"
    predicate: Predicate = ANY

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _require_nodes(self.nodes, field="query"))
        _require_count(self.k)
        if self.agg not in AGGREGATE_FUNCTIONS:
            raise ValueError(
                f"agg must be one of {AGGREGATE_FUNCTIONS}, got {self.agg!r}"
            )


@dataclass(frozen=True)
class ODMatrixQuery:
    """Origin-destination cost matrix: many-to-many network distances.

    The answer is one :class:`ODMatrixEntry` per (source, target) pair in
    row-major order (all targets of the first source, then the second,
    ...); an unreachable pair carries ``distance = inf``.  ``sources``
    must be non-empty; ``targets`` may be empty (an empty matrix — the
    degenerate "no destinations yet" shape).  There is no attribute
    predicate: the matrix is a pure network-distance product.
    """

    kind: ClassVar[str] = "od_matrix"

    sources: Tuple[int, ...]
    targets: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sources", _require_nodes(self.sources, field="sources")
        )
        object.__setattr__(
            self,
            "targets",
            _require_nodes(self.targets, field="targets", allow_empty=True),
        )


@dataclass(frozen=True)
class ServiceAreaQuery:
    """Multi-break isochrone: matching objects bucketed by travel cost.

    ``breaks`` are the cumulative cost cut-offs (e.g. ``(5, 10, 15)``
    minutes); the answer is every matching object within the largest
    break, each tagged with the index of the first break covering it
    (:attr:`ServiceAreaEntry.bucket`).  Breaks may arrive unsorted —
    they are normalised to ascending order; each must be a finite
    non-negative number and at least one is required.
    """

    kind: ClassVar[str] = "service_area"

    node: int
    breaks: Tuple[float, ...]
    predicate: Predicate = ANY

    def __post_init__(self) -> None:
        _require_node(self.node)
        raw = tuple(self.breaks)
        if not raw:
            raise ValueError("need at least one break")
        cleaned = sorted(_require_distance(b, field="break") for b in raw)
        object.__setattr__(self, "breaks", tuple(cleaned))


@dataclass(frozen=True)
class RouteKNNQuery:
    """In-route kNN: the k best objects by detour distance from a path.

    "Nearest charger along my route": every node of ``path`` seeds one
    multi-source sweep at distance 0, so an object's distance is the
    smallest detour from any point of the route.  Duplicate path nodes
    are legal (loops, stuttered GPS traces) and collapse to one seed.
    """

    kind: ClassVar[str] = "route_knn"

    path: Tuple[int, ...]
    k: int
    predicate: Predicate = ANY

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", _require_nodes(self.path, field="path"))
        _require_count(self.k)


#: Every declared query kind.  Executors and the wire codec accept
#: exactly these classes (by exact type, never a subclass).
QUERY_TYPES: Tuple[Type[Any], ...] = (
    KNNQuery,
    RangeQuery,
    AggregateKNNQuery,
    ODMatrixQuery,
    ServiceAreaQuery,
    RouteKNNQuery,
)


@dataclass(frozen=True)
class ResultEntry:
    """One answer object with its exact network distance from the query."""

    object_id: int
    distance: float


@dataclass(frozen=True)
class ServiceAreaEntry(ResultEntry):
    """A service-area answer: the object plus its isochrone bucket.

    ``bucket`` indexes into the query's (sorted) ``breaks``: the first
    break that covers the object's distance.
    """

    bucket: int


@dataclass(frozen=True)
class ODMatrixEntry:
    """One source->target cell of an OD cost matrix.

    ``distance`` is ``inf`` when the target is unreachable from the
    source (``null`` on the wire).
    """

    source: int
    target: int
    distance: float


#: Any row an executor may return: plain / bucketed object answers, or
#: OD matrix cells.  (``ServiceAreaEntry`` is a ``ResultEntry``.)
ResultRow = Union[ResultEntry, ODMatrixEntry]


def sort_result(entries: List[ResultEntry]) -> List[ResultEntry]:
    """Order entries by (distance, object id) — the canonical result order."""
    return sorted(entries, key=lambda e: (e.distance, e.object_id))
