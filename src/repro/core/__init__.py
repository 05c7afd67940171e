"""ROAD core: Rnet hierarchy, shortcuts, Route Overlay, Association Directory."""

from repro.core.aggregate import AGGREGATES, aggregate_knn, aggregate_knn_generic
from repro.core.association_directory import AssociationDirectory, DirectoryError
from repro.core.framework import ROAD, BuildReport, DEFAULT_DIRECTORY, RoutedResult
from repro.core.frozen import FrozenRoad, FrozenRoadError
from repro.core.paths import PathError, PathTracer, expand_shortcut, node_path, object_path
from repro.core.serialize import SerializeError, load_road, save_road
from repro.core.maintenance import MaintenanceError, MaintenanceReport
from repro.core.owner import SnapshotOwner
from repro.core.object_abstract import (
    BloomAbstract,
    CountingAbstract,
    ExactAbstract,
    ObjectAbstract,
    SignatureAbstract,
    bloom_abstract,
    counting_abstract,
    exact_abstract,
    signature_abstract,
)
from repro.core.rnet import HierarchyError, Rnet, RnetHierarchy
from repro.core.route_overlay import RouteOverlay, RouteOverlayError
from repro.core.search import (
    AbstractCache,
    SearchStats,
    choose_path,
    iter_nearest_objects,
    knn_search,
    range_search,
)
from repro.core.shortcut_tree import (
    ShortcutTree,
    ShortcutTreeEntry,
    build_shortcut_tree,
)
from repro.core.shortcuts import (
    Shortcut,
    ShortcutIndex,
    build_shortcuts,
    compute_rnet_shortcuts,
    reduce_shortcuts,
)

__all__ = [
    "AGGREGATES",
    "AbstractCache",
    "AssociationDirectory",
    "BloomAbstract",
    "BuildReport",
    "CountingAbstract",
    "DEFAULT_DIRECTORY",
    "DirectoryError",
    "ExactAbstract",
    "FrozenRoad",
    "FrozenRoadError",
    "HierarchyError",
    "MaintenanceError",
    "MaintenanceReport",
    "ObjectAbstract",
    "ROAD",
    "Rnet",
    "RnetHierarchy",
    "PathError",
    "PathTracer",
    "RouteOverlay",
    "RouteOverlayError",
    "RoutedResult",
    "SerializeError",
    "SearchStats",
    "Shortcut",
    "ShortcutIndex",
    "ShortcutTree",
    "ShortcutTreeEntry",
    "SignatureAbstract",
    "SnapshotOwner",
    "aggregate_knn",
    "bloom_abstract",
    "build_shortcut_tree",
    "build_shortcuts",
    "choose_path",
    "compute_rnet_shortcuts",
    "counting_abstract",
    "exact_abstract",
    "expand_shortcut",
    "iter_nearest_objects",
    "knn_search",
    "load_road",
    "node_path",
    "object_path",
    "range_search",
    "reduce_shortcuts",
    "save_road",
]
