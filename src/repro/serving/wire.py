"""JSON wire codecs for every registered query class (and results).

The HTTP tier (:mod:`repro.serving.http`) needs a serialization story
that keeps pace with the dispatch registry: every query class an engine
registers a handler for must round-trip through JSON, or the network
edge silently serves a subset of the API.  This module is the one
mapping between wire payloads and the dataclasses in
:mod:`repro.queries.types`:

* ``encode_query`` / ``decode_query`` — ``{"type": "knn", "node": 3,
  "k": 5, "predicate": {"type": "seafood"}}`` <-> :class:`KNNQuery`,
  dispatching on the ``type`` tag through a codec registry
  (:func:`register_wire`) mirroring ``@register_handler``;
* ``encode_result`` / ``decode_result`` — result lists as
  ``[{"object_id": ..., "distance": ...}, ...]``, exact float
  round-trip (JSON carries the ``repr`` of IEEE doubles); rows carry
  their shape in their keys (``source``/``target`` for OD cells —
  where an unreachable ``inf`` crosses as ``null``, since JSON has no
  infinities — ``bucket`` for service-area hits), so heterogeneous
  batch responses decode without a side channel;
* :class:`WireError` — every malformed payload raises this one typed
  error, which the HTTP tier maps to a 400.

The serving tests pair :func:`wire_types` with the dispatch registry's
``supported_queries`` to prove no query class can be registered for
execution without also being reachable over the wire.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Type

from repro.queries.types import (
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixEntry,
    ODMatrixQuery,
    Predicate,
    RangeQuery,
    ResultEntry,
    ResultRow,
    RouteKNNQuery,
    ServiceAreaEntry,
    ServiceAreaQuery,
)

__all__ = [
    "WireError",
    "decode_query",
    "decode_result",
    "encode_query",
    "encode_result",
    "register_wire",
    "wire_kinds",
    "wire_types",
]


class WireError(ValueError):
    """A malformed wire payload (the HTTP tier answers 400)."""


#: One codec half each way: object -> JSON-safe body, body -> object.
Encoder = Callable[[Any], Dict[str, Any]]
Decoder = Callable[[Mapping[str, Any]], object]

#: kind tag -> (query class, decoder); query class -> (kind tag, encoder).
_DECODERS: Dict[str, Tuple[Type, Decoder]] = {}
_ENCODERS: Dict[Type, Tuple[str, Encoder]] = {}


def register_wire(
    query_type: Type,
    kind: str,
    *,
    encode: Encoder,
    decode: Decoder,
) -> None:
    """Register the JSON codec for one query class.

    Mirrors ``@register_handler``: a double registration (either of the
    class or of the ``kind`` tag) raises — two codecs fighting over one
    wire tag is always a bug.
    """
    if kind in _DECODERS:
        raise ValueError(f"wire kind {kind!r} already registered")
    if query_type in _ENCODERS:
        raise ValueError(f"wire codec for {query_type.__name__} already registered")
    _DECODERS[kind] = (query_type, decode)
    _ENCODERS[query_type] = (kind, encode)


def wire_kinds() -> Tuple[str, ...]:
    """Every registered wire tag, sorted."""
    return tuple(sorted(_DECODERS))


def wire_types() -> Tuple[Type, ...]:
    """Every query class with a codec (for registry-parity tests)."""
    return tuple(sorted(_ENCODERS, key=lambda qt: qt.__name__))


def encode_query(query: object) -> Dict[str, Any]:
    """One query object as its JSON-safe wire payload."""
    entry = _ENCODERS.get(type(query))
    if entry is None:
        raise WireError(
            f"no wire codec for query type {type(query).__name__} "
            f"(registered: {', '.join(wire_kinds()) or 'none'})"
        )
    kind, encode = entry
    payload = encode(query)
    payload["type"] = kind
    return payload


def decode_query(payload: object) -> object:
    """One wire payload back into its query object."""
    body = _require_mapping(payload, "query")
    kind = body.get("type")
    if not isinstance(kind, str):
        raise WireError("query payload needs a string 'type' tag")
    entry = _DECODERS.get(kind)
    if entry is None:
        raise WireError(
            f"unknown query type {kind!r} "
            f"(registered: {', '.join(wire_kinds()) or 'none'})"
        )
    _query_type, decode = entry
    try:
        return decode(body)
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        # Dataclass validation (k < 1, bad aggregate name, ...) speaks
        # ValueError; on the wire every rejection is one typed error.
        raise WireError(f"invalid {kind} query: {exc}") from exc


def _encode_row(entry: ResultRow) -> Dict[str, Any]:
    if isinstance(entry, ODMatrixEntry):
        # JSON has no infinities: an unreachable cell crosses as null.
        return {
            "source": entry.source,
            "target": entry.target,
            "distance": None if math.isinf(entry.distance) else entry.distance,
        }
    if isinstance(entry, ServiceAreaEntry):
        return {
            "object_id": entry.object_id,
            "distance": entry.distance,
            "bucket": entry.bucket,
        }
    return {"object_id": entry.object_id, "distance": entry.distance}


def encode_result(entries: Sequence[ResultRow]) -> List[Dict[str, Any]]:
    """One result list as its JSON-safe wire form."""
    return [_encode_row(entry) for entry in entries]


def _decode_row(body: Mapping[str, Any]) -> ResultRow:
    # A row's keys carry its shape: OD cells name source/target,
    # service-area hits add a bucket, plain entries carry neither.
    if "source" in body:
        raw = body.get("distance")
        distance = float("inf") if raw is None else _require_number(body, "distance")
        return ODMatrixEntry(
            source=_require_int(body, "source"),
            target=_require_int(body, "target"),
            distance=distance,
        )
    if "bucket" in body:
        return ServiceAreaEntry(
            object_id=_require_int(body, "object_id"),
            distance=_require_number(body, "distance"),
            bucket=_require_int(body, "bucket"),
        )
    return ResultEntry(
        object_id=_require_int(body, "object_id"),
        distance=_require_number(body, "distance"),
    )


def decode_result(payload: object) -> List[ResultRow]:
    """One wire result list back into its result-row objects."""
    if not isinstance(payload, Sequence) or isinstance(payload, (str, bytes)):
        raise WireError("result payload must be a list of entries")
    return [_decode_row(_require_mapping(item, "result entry")) for item in payload]


# ---------------------------------------------------------------------------
# Field helpers (shared by the codecs below and the maintenance endpoint)
# ---------------------------------------------------------------------------
def _require_mapping(value: object, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise WireError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _require_int(body: Mapping[str, Any], field: str) -> int:
    value = body.get(field)
    # bool is an int subclass; "node": true is a malformed payload.
    if not isinstance(value, int) or isinstance(value, bool):
        raise WireError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _require_number(body: Mapping[str, Any], field: str) -> float:
    value = body.get(field)
    # json.loads accepts the NaN / Infinity literals; no field has a use
    # for them (a NaN edge distance breaks every comparison downstream).
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise WireError(f"field {field!r} must be a finite number, got {value!r}")
    return float(value)


def _require_str(body: Mapping[str, Any], field: str) -> str:
    value = body.get(field)
    if not isinstance(value, str):
        raise WireError(f"field {field!r} must be a string, got {value!r}")
    return value


def _require_node_list(body: Mapping[str, Any], field: str) -> Tuple[int, ...]:
    raw = body.get(field)
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise WireError(f"field {field!r} must be a list of node ids, got {raw!r}")
    nodes: List[int] = []
    for node in raw:
        if not isinstance(node, int) or isinstance(node, bool):
            raise WireError(f"field {field!r} must hold integers, got {node!r}")
        nodes.append(node)
    return tuple(nodes)


def _require_number_list(body: Mapping[str, Any], field: str) -> Tuple[float, ...]:
    raw = body.get(field)
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise WireError(f"field {field!r} must be a list of numbers, got {raw!r}")
    values: List[float] = []
    for value in raw:
        # Same rule as _require_number: NaN / Infinity literals are refused.
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            raise WireError(f"field {field!r} must hold finite numbers, got {value!r}")
        values.append(float(value))
    return tuple(values)


def _decode_predicate(body: Mapping[str, Any]) -> Predicate:
    raw = body.get("predicate")
    if raw is None:
        return Predicate()
    mapping = _require_mapping(raw, "predicate")
    for key, value in mapping.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise WireError(
                f"predicate entries must map strings to strings, got "
                f"{key!r}: {value!r}"
            )
    return Predicate.from_mapping(mapping)


def _encode_predicate(predicate: Predicate, payload: Dict[str, Any]) -> None:
    if not predicate.is_unconstrained:
        payload["predicate"] = predicate.as_dict()


# ---------------------------------------------------------------------------
# The built-in codecs, one per registered query class
# ---------------------------------------------------------------------------
def _encode_knn(query: KNNQuery) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"node": query.node, "k": query.k}
    _encode_predicate(query.predicate, payload)
    return payload


def _decode_knn(body: Mapping[str, Any]) -> KNNQuery:
    return KNNQuery(
        node=_require_int(body, "node"),
        k=_require_int(body, "k"),
        predicate=_decode_predicate(body),
    )


def _encode_range(query: RangeQuery) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"node": query.node, "radius": query.radius}
    _encode_predicate(query.predicate, payload)
    return payload


def _decode_range(body: Mapping[str, Any]) -> RangeQuery:
    return RangeQuery(
        node=_require_int(body, "node"),
        radius=_require_number(body, "radius"),
        predicate=_decode_predicate(body),
    )


def _encode_aggregate(query: AggregateKNNQuery) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "nodes": list(query.nodes),
        "k": query.k,
        "agg": query.agg,
    }
    _encode_predicate(query.predicate, payload)
    return payload


def _decode_aggregate(body: Mapping[str, Any]) -> AggregateKNNQuery:
    agg = body.get("agg", "sum")
    if not isinstance(agg, str):
        raise WireError(f"field 'agg' must be a string, got {agg!r}")
    return AggregateKNNQuery(
        nodes=_require_node_list(body, "nodes"),
        k=_require_int(body, "k"),
        agg=agg,
        predicate=_decode_predicate(body),
    )


def _encode_od_matrix(query: ODMatrixQuery) -> Dict[str, Any]:
    return {"sources": list(query.sources), "targets": list(query.targets)}


def _decode_od_matrix(body: Mapping[str, Any]) -> ODMatrixQuery:
    return ODMatrixQuery(
        sources=_require_node_list(body, "sources"),
        targets=_require_node_list(body, "targets"),
    )


def _encode_service_area(query: ServiceAreaQuery) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"node": query.node, "breaks": list(query.breaks)}
    _encode_predicate(query.predicate, payload)
    return payload


def _decode_service_area(body: Mapping[str, Any]) -> ServiceAreaQuery:
    return ServiceAreaQuery(
        node=_require_int(body, "node"),
        breaks=_require_number_list(body, "breaks"),
        predicate=_decode_predicate(body),
    )


def _encode_route_knn(query: RouteKNNQuery) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"path": list(query.path), "k": query.k}
    _encode_predicate(query.predicate, payload)
    return payload


def _decode_route_knn(body: Mapping[str, Any]) -> RouteKNNQuery:
    return RouteKNNQuery(
        path=_require_node_list(body, "path"),
        k=_require_int(body, "k"),
        predicate=_decode_predicate(body),
    )


register_wire(KNNQuery, "knn", encode=_encode_knn, decode=_decode_knn)
register_wire(RangeQuery, "range", encode=_encode_range, decode=_decode_range)
register_wire(
    AggregateKNNQuery,
    "aggregate_knn",
    encode=_encode_aggregate,
    decode=_decode_aggregate,
)
register_wire(
    ODMatrixQuery,
    "od_matrix",
    encode=_encode_od_matrix,
    decode=_decode_od_matrix,
)
register_wire(
    ServiceAreaQuery,
    "service_area",
    encode=_encode_service_area,
    decode=_decode_service_area,
)
register_wire(
    RouteKNNQuery,
    "route_knn",
    encode=_encode_route_knn,
    decode=_decode_route_knn,
)
