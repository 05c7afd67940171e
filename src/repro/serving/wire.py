"""The JSON wire codec for every declared query and write class (and results).

The HTTP tier (:mod:`repro.serving.http`) needs a serialization story
that keeps pace with the query and write kinds: every class in
:data:`~repro.queries.types.QUERY_TYPES` and
:data:`~repro.queries.writes.WRITE_TYPES` must round-trip through JSON,
or the network edge silently serves a subset of the API.  This module
is the one mapping between wire payloads and those dataclasses, and it
is read off the dataclasses rather than written per kind:

* ``encode_query`` / ``decode_query`` — ``{"type": "knn", "node": 3,
  "k": 5, "predicate": {"type": "seafood"}}`` <-> :class:`KNNQuery`.
  The ``type`` tag is the class's ``kind``; the other keys are its
  fields, each checked by the rule :data:`_FIELD_CHECKS` keeps for that
  field name.  An absent field takes the dataclass default if it has
  one; any other absent field, and any key that is not a field of the
  kind, is refused;
* ``encode_write`` / ``decode_write`` — the same rules with the tag
  ``op``: ``DeleteObject(7, "hotels")`` crosses as ``{"object_id": 7,
  "directory": "hotels", "op": DeleteObject.kind}``.  An insert's
  ``object`` is itself read off
  :class:`~repro.objects.model.SpatialObject`'s fields (``object_id``,
  ``edge``, ``delta`` and the optional ``attrs``), an unknown key
  refused there too;
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
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Sequence, Tuple, Type

from repro.objects.model import ObjectError, SpatialObject
from repro.queries.types import (
    QUERY_TYPES,
    ODMatrixEntry,
    Predicate,
    ResultEntry,
    ResultRow,
    ServiceAreaEntry,
)
from repro.queries.writes import WRITE_TYPES

__all__ = [
    "WireError",
    "decode_query",
    "decode_result",
    "decode_write",
    "encode_query",
    "encode_result",
    "encode_write",
]


class WireError(ValueError):
    """A malformed wire payload (the HTTP tier answers 400)."""


def encode_query(query: object) -> Dict[str, Any]:
    """One query object as its JSON-safe wire payload.

    Fields in declaration order, tuples as lists, an unconstrained
    predicate omitted, then the ``type`` tag.
    """
    return _encode_tagged(query, "type", "query", _QUERY_KINDS)


def decode_query(payload: object) -> object:
    """One wire payload back into its query object."""
    body = _require_mapping(payload, "query")
    return _decode_tagged(body, "type", "query", _QUERY_KINDS)


def encode_write(write: object) -> Dict[str, Any]:
    """One write object as its JSON-safe wire payload: fields in
    declaration order (an insert's object as a nested payload), then
    the ``op`` tag."""
    return _encode_tagged(write, "op", "write", _WRITE_KINDS)


def decode_write(payload: object) -> object:
    """One ``POST /maintenance`` payload back into its write object."""
    body = _require_mapping(payload, "request body")
    return _decode_tagged(body, "op", "write", _WRITE_KINDS)


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


def _require_string_map(body: Mapping[str, Any], field: str) -> Dict[str, str]:
    mapping = _require_mapping(body[field], field)
    for key, value in mapping.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise WireError(
                f"{field} entries must map strings to strings, got "
                f"{key!r}: {value!r}"
            )
    return dict(mapping)


def _require_predicate(body: Mapping[str, Any], field: str) -> Predicate:
    if body[field] is None:
        return Predicate()
    return Predicate.from_mapping(_require_string_map(body, field))


def _require_edge(body: Mapping[str, Any], field: str) -> Tuple[int, ...]:
    edge = _require_node_list(body, field)
    if len(edge) != 2:
        raise WireError(f"field {field!r} must be a [u, v] pair, got {body[field]!r}")
    return edge


def _require_object(body: Mapping[str, Any], field: str) -> object:
    raw = _require_mapping(body[field], f"field {field!r}")
    return _decode_fields(field, SpatialObject, raw)


# ---------------------------------------------------------------------------
# The codec tables, read off the declared classes
# ---------------------------------------------------------------------------
#: Field name -> the check its wire value must pass (whichever class
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
    "object": _require_object,
    "object_id": _require_int,
    "edge": _require_edge,
    "delta": _require_number,
    "attrs": _require_string_map,
    "u": _require_int,
    "v": _require_int,
    "distance": _require_number,
    "directory": _require_str,
}

#: One field's wire form: its name, its check, and whether the payload
#: must carry it (the dataclass has no default for it).
_WireField = Tuple[str, Callable[[Mapping[str, Any], str], Any], bool]


def _declare(cls: Type[Any]) -> Tuple[Tuple[_WireField, ...], FrozenSet[str]]:
    declared = tuple(
        (
            field.name,
            _FIELD_CHECKS[field.name],
            field.default is MISSING and field.default_factory is MISSING,
        )
        for field in fields(cls)
    )
    return declared, frozenset(name for name, _check, _required in declared)


#: Declared class -> (its fields in declaration order, the payload keys
#: they make, the tag aside).  An insert's object is declared too.
_DECLARED: Dict[type, Tuple[Tuple[_WireField, ...], FrozenSet[str]]] = {
    cls: _declare(cls) for cls in (*QUERY_TYPES, *WRITE_TYPES, SpatialObject)
}

#: Wire tag -> declared class, per family.
_QUERY_KINDS: Dict[str, type] = {cls.kind: cls for cls in QUERY_TYPES}
_WRITE_KINDS: Dict[str, type] = {cls.kind: cls for cls in WRITE_TYPES}


def _encode_fields(item: object) -> Dict[str, Any]:
    """A declared dataclass's fields as JSON-safe values, in order."""
    payload: Dict[str, Any] = {}
    for name, _check, _required in _DECLARED[type(item)][0]:
        value = getattr(item, name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Predicate):
            if value.is_unconstrained:
                continue
            value = value.as_dict()
        elif isinstance(value, SpatialObject):
            value = _encode_fields(value)
        elif isinstance(value, dict):
            value = dict(value)
        payload[name] = value
    return payload


def _encode_tagged(
    item: object, tag: str, what: str, by_kind: Mapping[str, type]
) -> Dict[str, Any]:
    """``item``'s fields, then ``tag`` naming its kind in ``by_kind``."""
    kind = getattr(type(item), "kind", None)
    if by_kind.get(kind) is not type(item):
        raise WireError(
            f"no wire form for {what} type {type(item).__name__} "
            f"(declared: {', '.join(sorted(by_kind))})"
        )
    payload = _encode_fields(item)
    payload[tag] = kind
    return payload


def _decode_tagged(
    body: Mapping[str, Any], tag: str, what: str, by_kind: Mapping[str, type]
) -> object:
    """The class ``body[tag]`` names in ``by_kind``, decoded from ``body``."""
    kind = body.get(tag)
    if not isinstance(kind, str):
        raise WireError(f"{what} payload needs a string {tag!r} tag")
    cls = by_kind.get(kind)
    if cls is None:
        raise WireError(
            f"unknown {what} {tag} {kind!r} (declared: {', '.join(sorted(by_kind))})"
        )
    return _decode_fields(f"{kind} {what}", cls, body, tag)


def _decode_fields(
    what: str, cls: type, body: Mapping[str, Any], tag: str = ""
) -> object:
    """``cls`` from ``body``: each key checked, an absent optional field
    left to its default; a missing required field or a key that is
    neither a field nor ``tag`` is refused."""
    declared, keys = _DECLARED[cls]
    unknown = body.keys() - keys
    unknown.discard(tag)
    if unknown:
        raise WireError(f"{what} has no field {', '.join(sorted(map(repr, unknown)))}")
    values: Dict[str, Any] = {}
    for name, check, required in declared:
        if name in body:
            values[name] = check(body, name)
        elif required:
            raise WireError(f"{what} needs field {name!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError, ObjectError) as exc:
        # Dataclass validation (k < 1, a negative offset, ...) speaks
        # ValueError; on the wire every rejection is one typed error.
        raise WireError(f"invalid {what}: {exc}") from exc
