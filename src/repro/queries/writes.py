"""Maintenance writes: the six updates of the paper's Section 5.

A write is declared here once, as a query kind is in
:mod:`repro.queries.types`.  Each class in :data:`WRITE_TYPES` names its
``kind``: the :class:`~repro.core.framework.ROAD` method applying it
(``RemoveEdge(3, 4)`` runs ``road.remove_edge(3, 4)``), its ``op`` on
the wire, its :class:`~repro.core.maintenance.MaintenanceReport` kind
and its ``road_patches_total{kind}`` label.  Its fields, in declaration
order, are that method's positional arguments and the payload's other
keys, each checked at construction by a :mod:`repro.queries.types`
validator.  Object writes name a directory (Section 5.1); the network
writes change the Route Overlay every directory shares (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, ClassVar, Dict, Tuple, Type

from repro.objects.model import SpatialObject
from repro.queries.types import (
    _require_attrs,
    _require_distance,
    _require_int,
    _require_node,
    _require_str,
)

#: The directory a query or write targets when it names none.
DEFAULT_DIRECTORY = "objects"


def _require_object(value: object) -> SpatialObject:
    if not isinstance(value, SpatialObject):
        raise ValueError(f"object must be a SpatialObject, got {value!r}")
    return value


#: Write field name -> its check, which returns the value to store.
_CHECKS: Dict[str, Callable[[Any], Any]] = {
    "object": _require_object,
    "object_id": partial(_require_int, field="object_id"),
    "attrs": _require_attrs,
    "directory": partial(_require_str, field="directory"),
    "u": partial(_require_node, field="u"),
    "v": partial(_require_node, field="v"),
    "distance": partial(_require_distance, field="distance"),
}


class _Checked:
    """Checks every dataclass field at construction."""

    def __post_init__(self) -> None:
        for field in fields(self):
            value = _CHECKS[field.name](getattr(self, field.name))
            object.__setattr__(self, field.name, value)


@dataclass(frozen=True)
class InsertObject(_Checked):
    """Add ``object`` (whose ``attrs`` may be empty) to a directory."""

    kind: ClassVar[str] = "insert_object"
    object: SpatialObject
    directory: str = DEFAULT_DIRECTORY


@dataclass(frozen=True)
class DeleteObject(_Checked):
    kind: ClassVar[str] = "delete_object"
    object_id: int
    directory: str = DEFAULT_DIRECTORY


@dataclass(frozen=True)
class UpdateObjectAttrs(_Checked):
    """Replace an object's attributes; ``attrs`` has no default, since a
    write without it would wipe them."""

    kind: ClassVar[str] = "update_object_attrs"
    object_id: int
    attrs: Dict[str, str]
    directory: str = DEFAULT_DIRECTORY


@dataclass(frozen=True)
class UpdateEdgeDistance(_Checked):
    kind: ClassVar[str] = "update_edge_distance"
    u: int
    v: int
    distance: float


@dataclass(frozen=True)
class AddEdge(_Checked):
    kind: ClassVar[str] = "add_edge"
    u: int
    v: int
    distance: float


@dataclass(frozen=True)
class RemoveEdge(_Checked):
    kind: ClassVar[str] = "remove_edge"
    u: int
    v: int


#: Every declared write.  Owners and the wire codec accept exactly these
#: classes (by exact type, never a subclass).
WRITE_TYPES: Tuple[Type[Any], ...] = (
    InsertObject,
    DeleteObject,
    UpdateObjectAttrs,
    UpdateEdgeDistance,
    AddEdge,
    RemoveEdge,
)
