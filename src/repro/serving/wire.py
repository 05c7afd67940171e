"""The JSON wire codec for every declared query class (and results).

The HTTP tier (:mod:`repro.serving.http`) needs a serialization story
that keeps pace with the query kinds: every class in
:data:`~repro.queries.types.QUERY_TYPES` must round-trip through JSON,
or the network edge silently serves a subset of the API.  This module
is the one mapping between wire payloads and the dataclasses in
:mod:`repro.queries.types`, and it is read off those dataclasses rather
than written per kind:

* ``encode_query`` / ``decode_query`` — ``{"type": "knn", "node": 3,
  "k": 5, "predicate": {"type": "seafood"}}`` <-> :class:`KNNQuery`.
  The ``type`` tag is the class's ``kind``; the other keys are its
  fields, each checked by the rule :data:`_FIELD_CHECKS` keeps for that
  field name.  An absent field takes the dataclass default if it has
  one; any other absent field, and any key that is not a field of the
  kind, is refused;
* ``encode_result`` / ``decode_result`` — result lists as
  ``[{"object_id": ..., "distance": ...}, ...]``, exact float
  round-trip (JSON carries the ``repr`` of IEEE doubles); rows carry
  their shape in their keys (``source``/``target`` for OD cells —
  where an unreachable ``inf`` crosses as ``null``, since JSON has no
  infinities — ``bucket`` for service-area hits), so heterogeneous
  batch responses decode without a side channel;
* :class:`WireError` — every malformed payload raises this one typed
  error, which the HTTP tier maps to a 400.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.queries.types import (
    QUERY_TYPES,
    ODMatrixEntry,
    Predicate,
    ResultEntry,
    ResultRow,
    ServiceAreaEntry,
)

__all__ = [
    "WireError",
    "decode_query",
    "decode_result",
    "encode_query",
    "encode_result",
]


class WireError(ValueError):
    """A malformed wire payload (the HTTP tier answers 400)."""


def encode_query(query: object) -> Dict[str, Any]:
    """One query object as its JSON-safe wire payload.

    Fields in declaration order, tuples as lists, an unconstrained
    predicate omitted, then the ``type`` tag.
    """
    entry = _BY_TYPE.get(type(query))
    if entry is None:
        raise WireError(
            f"no wire form for query type {type(query).__name__} "
            f"(declared: {_KINDS})"
        )
    kind, declared = entry
    payload: Dict[str, Any] = {}
    for name, _check, _default in declared:
        value = getattr(query, name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Predicate):
            if value.is_unconstrained:
                continue
            value = value.as_dict()
        payload[name] = value
    payload["type"] = kind
    return payload


def decode_query(payload: object) -> object:
    """One wire payload back into its query object."""
    body = _require_mapping(payload, "query")
    kind = body.get("type")
    if not isinstance(kind, str):
        raise WireError("query payload needs a string 'type' tag")
    entry = _BY_KIND.get(kind)
    if entry is None:
        raise WireError(f"unknown query type {kind!r} (declared: {_KINDS})")
    query_type, declared, keys = entry
    unknown = body.keys() - keys
    if unknown:
        raise WireError(
            f"{kind} query has no field {', '.join(sorted(map(repr, unknown)))}"
        )
    values: List[Any] = []
    for name, check, default in declared:
        if name in body:
            values.append(check(body, name))
        elif default is not MISSING:
            values.append(default)
        else:
            raise WireError(f"{kind} query needs field {name!r}")
    try:
        return query_type(*values)
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
# Field checks (shared by the query codec and the maintenance endpoint)
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


def _require_predicate(body: Mapping[str, Any], field: str) -> Predicate:
    raw = body[field]
    if raw is None:
        return Predicate()
    mapping = _require_mapping(raw, field)
    for key, value in mapping.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise WireError(
                f"predicate entries must map strings to strings, got "
                f"{key!r}: {value!r}"
            )
    return Predicate.from_mapping(mapping)


# ---------------------------------------------------------------------------
# The codec tables, read off the declared query classes
# ---------------------------------------------------------------------------
#: Query field name -> the check its wire value must pass (whichever kind
#: declares the field).
_FIELD_CHECKS: Dict[str, Callable[[Mapping[str, Any], str], Any]] = {
    "node": _require_int,
    "k": _require_int,
    "radius": _require_number,
    "nodes": _require_node_list,
    "sources": _require_node_list,
    "targets": _require_node_list,
    "path": _require_node_list,
    "breaks": _require_number_list,
    "agg": _require_str,
    "predicate": _require_predicate,
}

#: One field's wire form: its name, its check, and its dataclass default
#: (``MISSING`` when the field has none and the payload must carry it).
_WireField = Tuple[str, Callable[[Mapping[str, Any], str], Any], Any]

#: Declared query class -> (wire tag, its fields in declaration order).
_BY_TYPE: Dict[type, Tuple[str, Tuple[_WireField, ...]]] = {
    query_type: (
        query_type.kind,
        tuple(
            (field.name, _FIELD_CHECKS[field.name], field.default)
            for field in fields(query_type)
        ),
    )
    for query_type in QUERY_TYPES
}

#: Wire tag -> (query class, its fields, the payload keys it accepts).
_BY_KIND: Dict[str, Tuple[type, Tuple[_WireField, ...], FrozenSet[str]]] = {
    kind: (
        query_type,
        declared,
        frozenset(name for name, _check, _default in declared) | {"type"},
    )
    for query_type, (kind, declared) in _BY_TYPE.items()
}

#: Every wire tag, sorted (for error messages).
_KINDS = ", ".join(sorted(_BY_KIND))
