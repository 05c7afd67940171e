"""Compiled in-memory fast path: the :class:`FrozenRoad`.

The charged path (:mod:`repro.core.search` over
:class:`~repro.core.route_overlay.RouteOverlay`) pays a simulated disk
stack on every pop — a B+-tree descent plus record-page reads per
``shortcut_tree`` load — which is the right cost model for reproducing the
paper's I/O figures but the wrong hot path for serving throughput.
``freeze()`` compiles the Route Overlay and any number of Association
Directories into CSR-style parallel arrays so that kNNSearch / RangeSearch
run with **zero pager traffic** and no per-pop object allocation:

* every node's shortcut tree is flattened into a preorder entry array in
  the exact order the charged stack walk visits it (roots and children
  reversed, matching ``stack.pop()``), with a ``next`` pointer per entry
  that skips its subtree — so the "bypass Rnet R via shortcuts" decision
  becomes a single jump;
* shortcut targets/weights, leaf-level physical edges, non-border local
  edges and per-node object associations live in flat parallel arrays
  addressed by spans (CSR);
* each Rnet's object abstract is snapshotted (deep-copied) at freeze time;
  a query predicate is compiled once into a per-Rnet "may contain" bitmask
  and a per-object-slot match mask, both memoised per predicate and shared
  across every query on this snapshot (the batch layer's predicate cache);
* what ChoosePath pushes at a node depends only on the node and that
  bitmask, so it is computed once, on the node's first pop, and cached
  as a tuple of (target, weight) pairs beside the mask — the sweep is a
  plain Dijkstra over those tuples (see :meth:`FrozenRoad._sweep`).

A serving node attaching several content providers compiles **all of
them into one snapshot**: ``freeze(directories=["a", "b", ...])``
(default: every attached directory) builds the shortcut/edge entry
arrays — the part of the snapshot that scales with the network — exactly
once, while each directory contributes only its object spans, abstract
slots and cached predicate masks.  ``execute(query, directory=...)``
routes to the right span set, and one :meth:`FrozenRoad.apply` call
keeps *every* compiled directory current from a single
:class:`~repro.core.maintenance.MaintenanceReport`.

Because the compiled traversal replays the charged expansion push-for-push
(same push order, same shared sequence counter, same tie-breaking), a
``FrozenRoad`` returns *byte-identical* results to the charged path on the
same snapshot — the equivalence suite asserts exactly that.

A ``FrozenRoad`` starts as a point-in-time snapshot, but it does not have
to be thrown away on maintenance: :meth:`FrozenRoad.apply` consumes the
:class:`~repro.core.maintenance.MaintenanceReport` of a live update and
**delta-patches** the compiled arrays — rewriting only the CSR spans of
the dirty Route Overlay entries (shortcut targets/weights, edge weights)
and the object spans / abstract slots touched by object churn.  When the
report shows a structural change (border promotion/demotion, edge
addition/removal) or a span whose new contents cannot fit in place, the
patcher falls back to a full in-place recompile — so an ``apply`` always
leaves the snapshot byte-identical to a fresh ``freeze()``, at a cost
that scales with the perturbation in the common case.

How the compiled arrays are stored follows from who reads the snapshot
(see :mod:`repro.core.frozen_backends`): a heap snapshot keeps pre-boxed
Python lists (``"list"``, the fastest pure-Python queries), the process
pool's snapshot puts typed buffers in anonymous shared-memory segments
(``"shm"``), and a snapshot file loads as a read-only mmap view.  All of them serve
byte-identical answers; the first two support the patch lifecycle.
"""

from __future__ import annotations

import copy
import heapq
import os
import sys
import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.aggregate import aggregate_knn_generic
from repro.core.dispatch import (
    DEFAULT_DIRECTORY,
    QueryExecutor,
    UnknownDirectoryError,
)
from repro.core.multi_source import (
    bucket_entries,
    normalize_breaks,
    od_entries,
)
from repro.core.frozen_backends import (
    BoolMask,
    FloatVector,
    IntVector,
    ListBackend,
    resolve_backend,
)
from repro.core.shm_arrays import ShmVector
from repro.core.search import SearchStats
from repro.core.shortcut_tree import ShortcutTree, ShortcutTreeEntry
from repro.objects.model import SpatialObject
from repro.queries.types import (
    ANY,
    ODMatrixEntry,
    Predicate,
    ResultEntry,
    ServiceAreaEntry,
    sort_result,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.framework import ROAD
    from repro.core.maintenance import MaintenanceReport
    from repro.core.object_abstract import ObjectAbstract
    from repro.core.rnet import RnetHierarchy

#: One directory's ``export_entries()``/``peek_entries()`` payload.
_DirectoryExport = Tuple[
    Dict[int, List[Tuple[SpatialObject, float]]], Dict[int, "ObjectAbstract"]
]
#: ``_plan_tree_patch``'s write plan: (node index, per-entry shortcut
#: (target, weight) lists, per-entry edge lists, local-edge list).
_TreePatch = Tuple[
    int,
    List[List[Tuple[int, float]]],
    List[List[Tuple[int, float]]],
    List[Tuple[int, float]],
]

_INF = float("inf")

#: The compiled arrays every directory shares, by their ``_arrays()`` and
#: snapshot-file key; each lives on the snapshot as ``_<key>``.
SHARED_ARRAYS = (
    "entry_start", "entry_rnet", "entry_next",
    "sc_start", "sc_target", "sc_weight",
    "ed_start", "ed_target", "ed_weight",
    "local_start", "local_target", "local_weight",
    "home_slot", "slot_parent",
)

#: Distinct predicates whose compiled masks are retained per (directory,
#: mask-kind) cache.  A long-lived server seeing high-cardinality
#: predicates (per-user filters) would otherwise grow the mask caches
#: without bound; eviction is LRU (hits re-insert the key, so the oldest
#: dict entry is always the coldest) — an evicted predicate recompiles in
#: O(rnets + objects) on its next use, and each eviction counts into the
#: per-directory ``mask_evictions`` surfaced by ``memory_stats()``.
MAX_CACHED_PREDICATES = 128


class FrozenRoadError(Exception):
    """Raised on queries against nodes missing from the frozen snapshot."""


def _flatten_tree_entries(
    roots: List[ShortcutTreeEntry],
) -> Tuple[List[ShortcutTreeEntry], List[int]]:
    """Flatten a shortcut tree the way the charged stack walk visits it.

    Returns ``(entries, nexts)``: the entries in preorder with roots and
    children reversed (matching ``stack.pop()``), and per entry the
    *relative* index just past its subtree (the subtree-skip pointer).
    This is the single source of the compiled layout contract — both the
    full compile and the delta-patch planner consume it, so they can never
    drift apart.
    """
    entries: List[ShortcutTreeEntry] = []
    nexts: List[int] = []

    def emit(entry: ShortcutTreeEntry) -> None:
        i = len(entries)
        entries.append(entry)
        nexts.append(0)
        # The charged walk pops a stack, so children run in reverse.
        for child in reversed(entry.children):
            emit(child)
        nexts[i] = len(entries)

    for root in reversed(roots):
        emit(root)
    return entries, nexts


#: A node's ChoosePath result: (target code, weight) in push order.
_Pairs = Tuple[Tuple[int, float], ...]
#: A border node's ChoosePath charges: (edges relaxed, shortcuts taken,
#: Rnets bypassed, Rnets descended, examined Rnet slots).
_Tally = Tuple[int, int, int, int, Tuple[int, ...]]


class _PathTable:
    """One compiled Rnet mask and the ChoosePath results it decides.

    ChoosePath (Fig. 10) at a border node is a pure function of the node
    and the mask, so its ``(target, weight)`` pairs and its charges are
    kept here, filled on the node's first pop.  Non-border nodes do not
    read the mask; their pairs live in the snapshot's shared table
    instead.  A table lives in its mask-cache entry, so LRU eviction
    frees it; an OD query builds a private one per call
    (:meth:`FrozenRoad._target_goal`).
    """

    __slots__ = ("may", "pairs", "tallies")

    def __init__(self, may: BoolMask) -> None:
        self.may = may
        self.pairs: Dict[int, _Pairs] = {}
        self.tallies: Dict[int, _Tally] = {}

    def reset(self, codes: Optional[Iterable[int]] = None) -> None:
        """Forget the entries of ``codes`` (None: every entry)."""
        if codes is None:
            self.pairs.clear()
            self.tallies.clear()
            return
        for code in codes:
            self.pairs.pop(code, None)
            self.tallies.pop(code, None)


class _DirectoryState:
    """One compiled Association Directory inside a snapshot.

    The shortcut/edge entry arrays live on the snapshot and are shared by
    every directory; a directory contributes only its object spans
    (CSR over the snapshot's node order), its per-Rnet-slot abstract
    snapshots, and its per-predicate mask caches — the parts that differ
    between providers serving the same network.
    """

    __slots__ = (
        "name",
        "obj_start",
        "obj_id",
        "obj_delta",
        "obj_ref",
        "abstracts",
        "rnet_masks",
        "obj_masks",
        "mask_evictions",
        "views",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.obj_start: IntVector = []
        self.obj_id: IntVector = []
        self.obj_delta: FloatVector = []
        self.obj_ref: List[SpatialObject] = []
        #: Deep-copied abstract per compiled Rnet slot (None = no objects).
        self.abstracts: List[Optional["ObjectAbstract"]] = []
        self.rnet_masks: Dict[Predicate, _PathTable] = {}
        self.obj_masks: Dict[Predicate, bytearray] = {}
        #: Masks dropped by the per-directory LRU budget since compile.
        self.mask_evictions = 0
        #: Cached (obj_start, obj_id, obj_delta) query views; dropped with
        #: the snapshot's shared views before any patch.
        self.views: Optional[Tuple[Any, Any, Any]] = None


class FrozenRoad(QueryExecutor):
    """A read-only, in-memory compilation of one ROAD + its directories.

    Construct via :meth:`FrozenRoad.from_road` or
    :meth:`repro.core.framework.ROAD.freeze`.  Queries mirror the facade:
    :meth:`knn`, :meth:`range`, :meth:`aggregate_knn`,
    :meth:`service_area`, :meth:`route_knn`, :meth:`od_matrix`,
    :meth:`iter_nearest_objects`, :meth:`execute`, and the batch entry
    point :meth:`execute_many`; every query takes ``directory=`` to pick
    one of the compiled directories (None = :attr:`default_directory`).
    After live maintenance, :meth:`apply` delta-patches the snapshot —
    all compiled directories at once — from the update's
    MaintenanceReport.

    There is one object-search kernel, the generator :meth:`_sweep`: the
    only pop loop, a Dijkstra over each node's cached ChoosePath pairs,
    seeded with one node or many, stopped by ``k``, ``radius`` or
    tie-draining, yielding ``(distance, object_id)`` and flushing
    counters and footprint into ``SearchStats`` when it ends or is
    closed.  :meth:`knn`, :meth:`range`,
    :meth:`service_area` and :meth:`route_knn` run it to its stop rule
    and shape the rows (sort, cut at k, bucket by break);
    :meth:`iter_nearest_objects` hands it out unbounded, and
    :meth:`aggregate_knn` interleaves several of those.  :meth:`od_matrix`
    runs it once per source with the query's targets standing in for
    the directory's objects (:meth:`_target_goal`).  The footprint a
    sweep reports is every node it pushed — settled, still queued, or
    popped beyond the bound — and every Rnet whose abstract it consulted,
    the same rule as the charged :func:`repro.core.search.object_sweep`.
    """

    def __init__(
        self,
        trees: Dict[int, "ShortcutTree"],
        *,
        directories: Dict[str, _DirectoryExport],
        default_directory: Optional[str] = None,
        backend: Optional[Union[str, ListBackend]] = None,
        hierarchy: "RnetHierarchy",
    ) -> None:
        """Compile ``trees`` plus one or more exported directories.

        ``directories`` maps directory name to an ``export_entries()``
        pair ``(node_entries, abstracts)``; insertion order becomes the
        compiled order.  ``hierarchy`` is the one the trees were built
        over (OD target masks read its interior Rnet chains).
        """
        if not directories:
            raise ValueError("directories must compile at least one directory")
        if default_directory is None:
            default_directory = (
                DEFAULT_DIRECTORY
                if DEFAULT_DIRECTORY in directories
                else next(iter(directories))
            )
        if default_directory not in directories:
            raise UnknownDirectoryError(
                self, default_directory, directories
            )
        self._default_directory = default_directory
        #: The array backend this snapshot compiles into — a name from
        #: :data:`repro.core.frozen_backends.BACKENDS`, an instance, or
        #: None for ``"list"``.  Recompiles keep the same backend for the
        #: snapshot's whole lifetime.
        self._backend = resolve_backend(backend)
        #: Path of the snapshot file this instance was loaded from (set by
        #: :func:`repro.core.serialize.load_snapshot`); surfaced by
        #: :meth:`memory_stats`.
        self._snapshot_path: Optional[str] = None
        #: Weak reference to the live ROAD this snapshot was compiled from
        #: (set by :meth:`from_road`); :meth:`apply` patches against it.
        #: Weak so a snapshot never pins the O(network) charged structures
        #: — a server that drops the ROAD reclaims them, and a later
        #: no-road ``apply`` raises :class:`FrozenRoadError` instead.
        self._source: Optional["weakref.ReferenceType[ROAD]"] = None
        self._compile(trees, directories, hierarchy)

    def _compile(
        self,
        trees: Dict[int, "ShortcutTree"],
        directories: Dict[str, _DirectoryExport],
        hierarchy: "RnetHierarchy",
    ) -> None:
        """(Re)build every compiled array from a fresh export."""
        # --- node id space -------------------------------------------------
        self.node_ids: List[int] = sorted(trees)
        self._index: Dict[int, int] = {
            node: i for i, node in enumerate(self.node_ids)
        }
        self._code_boxes = self._intern_codes()
        n = len(self.node_ids)
        # --- Rnet id space (slots shared by every directory) ---------------
        self._rnet_index: Dict[int, int] = {}
        # --- compiled shortcut-tree entries (CSR) --------------------------
        # build with plain lists, then freeze into typed arrays
        e_start: List[int] = [0] * (n + 1)
        e_rnet: List[int] = []
        e_next: List[int] = []
        sc_span: List[int] = [0]
        sc_target: List[int] = []
        sc_weight: List[float] = []
        ed_span: List[int] = [0]
        ed_target: List[int] = []
        ed_weight: List[float] = []
        local_start: List[int] = [0] * (n + 1)
        local_target: List[int] = []
        local_weight: List[float] = []

        index = self._index

        def rnet_slot(rnet_id: int) -> int:
            slot = self._rnet_index.get(rnet_id)
            if slot is None:
                slot = len(self._rnet_index)
                self._rnet_index[rnet_id] = slot
            return slot

        for idx, node in enumerate(self.node_ids):
            base = len(e_rnet)
            e_start[idx] = base
            tree = trees[node]
            if tree.roots:
                flat, nexts = _flatten_tree_entries(tree.roots)
                for entry, nxt in zip(flat, nexts):
                    e_rnet.append(rnet_slot(entry.rnet_id))
                    e_next.append(base + nxt)
                    for shortcut in entry.shortcuts:
                        sc_target.append(index[shortcut.target])
                        sc_weight.append(shortcut.distance)
                    for neighbour, weight in entry.edges:
                        ed_target.append(index[neighbour])
                        ed_weight.append(weight)
                    sc_span.append(len(sc_target))
                    ed_span.append(len(ed_target))
            else:
                for neighbour, weight in tree.local_edges:
                    local_target.append(index[neighbour])
                    local_weight.append(weight)
            local_start[idx + 1] = len(local_target)
        e_start[n] = len(e_rnet)
        # every entry's spans end where the next entry's begin (emission
        # order == entry index order), so one starts-array with a sentinel
        # addresses both
        assert len(sc_span) == len(e_rnet) + 1
        assert len(ed_span) == len(e_rnet) + 1

        # The arrays are staged as plain lists, then materialised through
        # the selected backend: "list" keeps the pre-boxed lists (hot-loop
        # indexing returns existing objects), "shm" packs the same layout
        # into typed buffers in shared segments.  Both keep the arrays
        # mutable so :meth:`apply` can rewrite dirty spans in place with
        # slice assignments.
        B = self._backend
        self._entry_start = B.int_array(e_start)
        self._entry_rnet = B.int_array(e_rnet)
        self._entry_next = B.int_array(e_next)
        self._sc_start = B.int_array(sc_span)
        self._sc_target = B.int_array(sc_target)
        self._sc_weight = B.float_array(sc_weight)
        self._ed_start = B.int_array(ed_span)
        self._ed_target = B.int_array(ed_target)
        self._ed_weight = B.float_array(ed_weight)
        self._local_start = B.int_array(local_start)
        self._local_target = B.int_array(local_target)
        self._local_weight = B.float_array(local_weight)

        # Rnet ids in slot order, for the per-directory abstract snapshots
        # (and, cached, for translating footprints back to real ids).
        self._slot_rnets: Optional[Tuple[int, ...]] = None
        slot_rnets = self._rnet_ids_by_slot()

        # --- OD target masks (see _target_goal) ----------------------------
        # Per node the slot of its interior Rnet (RnetHierarchy.interior_rnet,
        # read off the tree: a border node's roots are its children, a
        # non-border node's edges all lie in it), per slot its parent's;
        # both skip to the nearest slotted ancestor, as only slotted Rnets
        # are ever consulted.
        def slotted(rnet_id: Optional[int]) -> int:
            while rnet_id is not None:
                slot = self._rnet_index.get(rnet_id)
                if slot is not None:
                    return slot
                rnet_id = hierarchy.rnet(rnet_id).parent
            return -1

        def interior(idx: int, node: int, tree: ShortcutTree) -> Optional[int]:
            if tree.roots:
                return hierarchy.rnet(tree.roots[0].rnet_id).parent
            if local_start[idx] < local_start[idx + 1]:  # its first edge
                neighbour = self.node_ids[local_target[local_start[idx]]]
                return hierarchy.leaf_of_edge(node, neighbour).rnet_id
            return None  # on no edge: only the root holds it

        self._home_slot = B.int_array(
            slotted(interior(idx, node, trees[node]))
            for idx, node in enumerate(self.node_ids)
        )
        self._slot_parent = B.int_array(
            slotted(hierarchy.rnet(rnet_id).parent) for rnet_id in slot_rnets
        )

        # --- per-directory state: object spans + abstracts + masks ---------
        # Every directory shares the entry/shortcut/edge arrays compiled
        # above (the O(network·levels) bulk of the snapshot) and adds only
        # its own object CSR, abstract slots and predicate-mask caches.
        self._dirs: Dict[str, _DirectoryState] = {}
        for name, (node_entries, abstracts) in directories.items():
            state = _DirectoryState(name)
            obj_start: List[int] = [0] * (n + 1)
            obj_id: List[int] = []
            obj_delta: List[float] = []
            obj_ref: List[SpatialObject] = []
            for idx, node in enumerate(self.node_ids):
                for obj, delta in node_entries.get(node, ()):
                    obj_id.append(obj.object_id)
                    obj_delta.append(delta)
                    obj_ref.append(obj)
                obj_start[idx + 1] = len(obj_id)
            state.obj_start = B.int_array(obj_start)
            state.obj_id = B.int_array(obj_id)
            state.obj_delta = B.float_array(obj_delta)
            #: Object references stay a Python list in every backend — the
            #: query path needs the objects themselves for mask compiles.
            state.obj_ref = obj_ref
            state.abstracts = [
                copy.deepcopy(abstracts[rnet_id])
                if abstracts.get(rnet_id) is not None
                else None
                for rnet_id in slot_rnets
            ]
            self._dirs[name] = state

        # Cached array views for the sweep (memoryviews over the typed
        # buffers; the lists themselves for the list backend), built
        # lazily per snapshot and dropped before any patch.
        self._views: Optional[Tuple[Any, ...]] = None
        self._drop_paths()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_road(
        cls,
        road: "ROAD",
        *,
        directory: Optional[str] = None,
        directories: Optional[Sequence[str]] = None,
        default: Optional[str] = None,
        backend: Optional[Union[str, ListBackend]] = None,
    ) -> "FrozenRoad":
        """Compile a built :class:`~repro.core.framework.ROAD`.

        Reads the Route Overlay's stored trees (uncharged bulk export)
        once, plus each selected Association Directory's node entries and
        Rnet abstracts (one charged leaf walk per directory — freezing is
        a build-time operation).  ``directories`` selects which attached
        directories to compile (default: **all** of them, sharing the
        entry arrays); ``directory`` is the single-directory shorthand.
        ``default`` picks the directory ``directory=None`` queries route
        to (default: ``"objects"`` when compiled, else the first name).
        ``backend`` selects the compiled array representation (see
        :mod:`repro.core.frozen_backends`).
        """
        if directory is not None and directories is not None:
            raise ValueError("pass directory= or directories=, not both")
        if directory is not None:
            names: List[str] = [directory]
        elif directories is not None:
            names = list(directories)
            if not names:
                raise ValueError(
                    "directories must name at least one attached directory"
                )
        else:
            names = list(road.directory_names)
            if not names:
                raise UnknownDirectoryError(road, DEFAULT_DIRECTORY, names)
        exports: Dict[str, _DirectoryExport] = {}
        for name in names:
            if name in exports:
                raise ValueError(f"directory {name!r} listed twice")
            # road.directory raises UnknownDirectoryError on unknown names.
            exports[name] = road.directory(name).export_entries()
        trees = dict(road.overlay.iter_trees())
        frozen = cls(
            trees,
            directories=exports,
            default_directory=default,
            backend=backend,
            hierarchy=road.hierarchy,
        )
        frozen._source = weakref.ref(road)
        return frozen

    @classmethod
    def from_parts(
        cls,
        *,
        backend: Union[str, ListBackend],
        arrays: Dict[str, Any],
        node_ids: Sequence[int],
        rnet_slots: Sequence[int],
        directories: Dict[
            str, Tuple[List[SpatialObject], List[Optional["ObjectAbstract"]]]
        ],
        default_directory: str,
        snapshot_path: Optional[str] = None,
    ) -> "FrozenRoad":
        """Assemble a snapshot from already-materialised arrays — no compile.

        The constructor behind both cold-start paths: a snapshot file
        loaded by :func:`repro.core.serialize.load_snapshot` and a worker
        process attaching a primary's shared-memory segments by descriptor
        (:meth:`from_manifest`).  ``arrays`` is keyed exactly like
        :meth:`_arrays` (directory-prefixed object arrays); ``rnet_slots``
        lists Rnet ids in compiled slot order; each directory contributes
        its ``(obj_ref, abstracts-in-slot-order)`` pair.  The instance has
        no source ROAD — :meth:`apply` needs one passed explicitly — and
        empty mask caches (predicates recompile lazily, as after a fresh
        freeze).
        """
        frozen = cls.__new__(cls)
        frozen._backend = resolve_backend(backend)
        frozen._snapshot_path = snapshot_path
        frozen._source = None
        frozen.node_ids = list(node_ids)
        frozen._index = {node: i for i, node in enumerate(frozen.node_ids)}
        frozen._code_boxes = frozen._intern_codes()
        frozen._rnet_index = {
            rnet_id: slot for slot, rnet_id in enumerate(rnet_slots)
        }
        for key in SHARED_ARRAYS:
            setattr(frozen, f"_{key}", arrays[key])
        if not directories:
            raise ValueError("directories must compile at least one directory")
        frozen._dirs = {}
        prefixed = len(directories) > 1
        for name, (obj_ref, abstracts) in directories.items():
            prefix = f"{name}:" if prefixed else ""
            state = _DirectoryState(name)
            state.obj_start = arrays[f"{prefix}obj_start"]
            state.obj_id = arrays[f"{prefix}obj_id"]
            state.obj_delta = arrays[f"{prefix}obj_delta"]
            state.obj_ref = list(obj_ref)
            state.abstracts = list(abstracts)
            frozen._dirs[name] = state
        if default_directory not in frozen._dirs:
            raise UnknownDirectoryError(
                frozen, default_directory, frozen._dirs
            )
        frozen._default_directory = default_directory
        frozen._views = None
        frozen._slot_rnets = None
        frozen._drop_paths()
        return frozen

    def export_parts(self) -> Dict[str, Any]:
        """The snapshot's assembly state, keyed like :meth:`from_parts`.

        Everything a cold process needs to reconstruct this snapshot
        without recompiling: the compiled arrays (by their
        directory-prefixed names), node/Rnet id spaces in slot order, the
        default directory, and each directory's ``(obj_ref, abstracts)``
        pair.  The arrays are the live backend
        objects, not copies — consumers serialise or re-home them
        (:func:`repro.core.serialize.save_snapshot`, :meth:`shm_manifest`)
        rather than mutate.
        """
        return {
            "arrays": self._arrays(),
            "node_ids": list(self.node_ids),
            "rnet_slots": list(self._rnet_ids_by_slot()),
            "default_directory": self._default_directory,
            "directories": {
                name: (list(state.obj_ref), list(state.abstracts))
                for name, state in self._dirs.items()
            },
        }

    def shm_manifest(self) -> Dict[str, Any]:
        """What another process needs to attach this snapshot zero-copy.

        Only meaningful for ``backend="shm"`` snapshots: ``segments`` maps
        each compiled array to ``(descriptor, typecode)`` — this
        process's descriptor of the array's segment, which the process
        pool passes to a worker over a Unix socket — beside the
        Python-side state the segments cannot carry: node/Rnet id spaces,
        object references and abstract snapshots per directory.  Feed to
        :meth:`from_manifest` wherever those descriptors are valid.
        """
        parts = self.export_parts()
        segments: Dict[str, Tuple[int, str]] = {}
        for key, arr in parts.pop("arrays").items():
            if not isinstance(arr, ShmVector):
                raise FrozenRoadError(
                    "shm_manifest() needs a backend='shm' snapshot; "
                    f"array {key!r} of this {self.backend!r} snapshot is "
                    "not shared"
                )
            segments[key] = (arr.descriptor, arr.typecode)
        parts["segments"] = segments
        return parts

    @classmethod
    def from_manifest(cls, manifest: Dict[str, Any]) -> "FrozenRoad":
        """Attach a primary's shared snapshot in this process (zero-copy).

        The inverse of :meth:`shm_manifest`: every compiled array maps
        the segment behind its descriptor — the primary's patch writes
        are visible here immediately — while object references and
        abstracts are this process's own copies (the process pool's sync
        protocol refreshes them on object churn).  The attachment is
        read-only in practice: resizing splices are refused off-owner,
        and the pool never routes ``apply`` to workers.  Each array keeps
        a duplicate of its descriptor; the caller still owns the ones in
        ``manifest``.  Call :meth:`close` to drop the attachments.
        """
        arrays: Dict[str, Any] = {
            key: ShmVector.attach(fd, typecode)
            for key, (fd, typecode) in manifest["segments"].items()
        }
        return cls.from_parts(
            backend="shm",
            arrays=arrays,
            node_ids=manifest["node_ids"],
            rnet_slots=manifest["rnet_slots"],
            directories=manifest["directories"],
            default_directory=manifest["default_directory"],
        )

    def close(self) -> None:
        """Release backend resources this snapshot holds; idempotent.

        Shared-memory snapshots drop their segment mappings and
        descriptors (the kernel frees a segment once every process
        holding it has let go); mmap-loaded snapshots close the mapped
        file.  Heap backends have nothing to release.  The snapshot must
        not serve queries afterwards.
        """
        self._drop_views()
        for state in self._dirs.values():
            state.rnet_masks.clear()
            state.obj_masks.clear()
        self._drop_paths()
        for arr in self._arrays().values():
            release = getattr(arr, "close", None)
            if release is not None:
                release()
        backend_close = getattr(self._backend, "close", None)
        if backend_close is not None:
            backend_close()

    def refresh_views(self) -> None:
        """Drop cached array views; the next query rebuilds them fresh.

        The process-pool sync hook for workers attached to a primary's
        shared segments: after the primary patches (and possibly
        resizes or grows) the shared arrays, cached memoryviews can be
        stale — a grown segment is re-mapped here, and the shm vectors
        re-derive their payload views lazily once the stale caches are
        gone.  The sync names no dirty node, so every cached ChoosePath
        result goes too — including any a batch filled from a torn read
        before the seqlock sent it to retry.
        """
        self._drop_views()
        for arr in self._arrays().values():
            if isinstance(arr, ShmVector):
                arr.remap()
        self._drop_paths()

    def sync_directories(
        self,
        directories: Dict[
            str, Tuple[List[SpatialObject], List[Optional["ObjectAbstract"]]]
        ],
    ) -> None:
        """Adopt a primary's post-churn directory state (pool sync).

        The shared segments already carry the primary's patched object
        spans; what they cannot carry is the Python-side state — the
        object references queries return and the abstract snapshots that
        drive Rnet pruning.  Replaces both per directory, invalidates
        the compiled predicate masks (they summarise the old abstracts),
        and drops cached array views (re-mapping grown segments) so the
        next query re-reads the possibly resized shared arrays.
        Directories this snapshot never compiled are ignored, mirroring
        :meth:`apply_object_delta`.
        """
        for name, (obj_ref, abstracts) in directories.items():
            state = self._dirs.get(name)
            if state is None:
                continue
            state.obj_ref = list(obj_ref)
            state.abstracts = list(abstracts)
            state.rnet_masks.clear()
            state.obj_masks.clear()
        self.refresh_views()

    @property
    def backend(self) -> str:
        """Name of the array backend this snapshot is compiled into."""
        return self._backend.name

    # ------------------------------------------------------------------
    # Incremental maintenance: delta-patch from MaintenanceReports
    # ------------------------------------------------------------------
    def apply(
        self, report: "MaintenanceReport", road: Optional["ROAD"] = None
    ) -> str:
        """Patch the snapshot after one live update; returns the outcome.

        ``report`` is the :class:`~repro.core.maintenance.MaintenanceReport`
        of a maintenance call on the live ``road`` (defaults to the ROAD
        this snapshot was frozen from).  Dirty Route Overlay entries have
        their shortcut/edge spans rewritten in place — once, however many
        directories are compiled; the object spans of **every** compiled
        directory affected by the update are refreshed from the live
        directories.  Object churn goes through
        :meth:`apply_object_delta`.  When the report is structural
        (border promotions/demotions, edge addition/removal) or a new span
        cannot fit in place, the whole snapshot is recompiled — still in
        place, so existing references keep serving.

        Returns ``"patched"`` or ``"recompiled"``; either way the snapshot
        is byte-identical to a fresh ``road.freeze()`` afterwards.

        Concurrency caveat: patching mutates the arrays a running
        traversal indexes, so finish (or close) any in-flight
        :meth:`iter_nearest_objects` iterator before calling ``apply`` —
        a paused iterator resumed across a patch may mix pre- and
        post-update state or raise.  Completed queries and future
        queries are unaffected; a serving loop applies updates between
        batches.
        """
        self._require_patchable()
        if report.object_churn:
            # Object deltas manage the source requirement and view caches
            # themselves: churn in a directory this snapshot never
            # compiled is a no-op that needs neither a live road nor a
            # view rebuild.
            return self.apply_object_delta(report, road)
        road = self._require_source(road)
        self._drop_views()
        if report.structural:
            self._recompile(road)
            return "recompiled"
        patches: List[_TreePatch] = []
        for node in sorted(report.dirty_nodes):
            idx = self._index.get(node)
            if idx is None:
                self._recompile(road)
                return "recompiled"
            # Read back (uncharged) the tree refresh_nodes just stored —
            # the overlay already rebuilt it during the live update.
            tree = road.overlay.stored_tree(node)
            patch = self._plan_tree_patch(idx, tree)
            if patch is None:  # span growth/shrink or reshaped tree
                self._recompile(road)
                return "recompiled"
            patches.append(patch)
        if report.edge is not None:
            # All-or-nothing: every compiled directory must still be
            # attached before any span is rewritten — a raise after the
            # tree patches landed would leave the snapshot half-patched
            # (new shortcut weights, stale object deltas) yet serving.
            for name in self._dirs:
                road.directory(name)
        for patch in patches:
            self._write_tree_patch(patch)
        # Only a rewritten node's ChoosePath can change: reset exactly
        # those, in the shared table and in every mask's.
        self._reset_paths(
            self._index[node]
            for node in {*report.dirty_nodes, *(report.edge or ())}
            if node in self._index
        )
        if report.edge is not None:
            # Objects hosted on the edge were rescaled by the framework —
            # in every attached directory; refresh their (object, δ)
            # spans at both endpoints, per compiled directory.
            endpoints = [n for n in report.edge if n in self._index]
            for state in self._dirs.values():
                self._rebuild_node_objects(road, endpoints, state)
        return "patched"

    def apply_object_delta(
        self, report: "MaintenanceReport", road: Optional["ROAD"] = None
    ) -> str:
        """Patch the snapshot after one object insertion or deletion.

        Rewrites the object spans of the host edge's endpoints and the
        abstract slots (plus compiled per-predicate masks) of the touched
        Rnet chain; the shortcut-tree arrays are untouched, mirroring the
        Section 5.1 property that object churn never reaches the Route
        Overlay.  The report's ``directory`` names the churned provider —
        only its compiled state is rewritten; churn in a directory this
        snapshot never compiled is a no-op.  A report naming no object or
        no directory raises :class:`FrozenRoadError`.
        """
        self._require_patchable()
        obj = report.obj
        if obj is None:
            raise FrozenRoadError(
                f"{report.kind} report carries no object to patch from"
            )
        if report.directory is None:
            raise FrozenRoadError(
                f"{report.kind} report names no directory to patch"
            )
        state = self._dirs.get(report.directory)
        if state is None:
            # Churn in a directory outside this snapshot: the compiled
            # spans already match a fresh freeze of the compiled set — a
            # true no-op, so neither a live source ROAD (a dropped road is
            # a supported serving state) nor the cached query views are
            # touched.  An explicitly passed road still becomes the
            # source for future applies.
            if road is not None:
                self._source = weakref.ref(road)
            return "patched"
        road = self._require_source(road)
        # All-or-nothing, as in :meth:`apply`: resolve the live directory
        # before the first span is touched.
        road.directory(state.name)
        self._drop_views()
        if any(node not in self._index for node in obj.edge):
            self._recompile(road)
            return "recompiled"
        self._rebuild_node_objects(road, list(obj.edge), state)
        self._refresh_abstracts(road, report.dirty_rnets, state)
        return "patched"

    def _require_patchable(self) -> None:
        """Reject maintenance on read-only (mmap snapshot view) backends."""
        if not self._backend.patchable:
            raise FrozenRoadError(
                "this snapshot is a read-only view of "
                f"{self._snapshot_path or 'a snapshot file'}; "
                "load_snapshot(path, backend='list') materialises a "
                "patchable copy"
            )

    def _require_source(self, road: Optional["ROAD"]) -> "ROAD":
        if road is None:
            road = self._source() if self._source is not None else None
        if road is None:
            raise FrozenRoadError(
                "no live source ROAD: freeze via ROAD.freeze()/from_road "
                "(and keep the road alive) or pass it to apply()"
            )
        # An explicitly passed road becomes the source for future applies,
        # whatever the outcome — source tracking must not depend on
        # whether this particular update patched or recompiled.
        self._source = weakref.ref(road)
        return road

    def _recompile(self, road: "ROAD") -> None:
        """Full fallback: rebuild every array from a fresh export, in place.

        Re-exports exactly the directories this snapshot compiled (all of
        them must still be attached to ``road``), keeping the compiled
        order, the default directory, and the backend.
        """
        # Uncharged export (peek_entries): the recompile runs inside a
        # maintenance apply, which must not disturb the LRU buffer or
        # the I/O counters.
        exports = {
            name: road.directory(name).peek_entries() for name in self._dirs
        }
        trees = dict(road.overlay.iter_trees())
        self._compile(trees, exports, road.hierarchy)
        self._source = weakref.ref(road)

    def _plan_tree_patch(
        self, idx: int, tree: ShortcutTree
    ) -> Optional[_TreePatch]:
        """Flatten one node's fresh tree and check it fits its old spans.

        Returns a write-plan ``(idx, sc_values, ed_values, local_values)``
        when the fresh tree has the same shape as the compiled one — same
        entry count, Rnet sequence, subtree-skip pointers, and span sizes —
        so only targets and weights need rewriting.  Returns None when the
        shape changed (the caller falls back to a recompile).  Uses the
        same :func:`_flatten_tree_entries` as :meth:`_compile`, so planner
        and compiler read one layout contract.
        """
        index = self._index
        e0, e1 = self._entry_start[idx], self._entry_start[idx + 1]
        local_values: List[Tuple[int, float]] = []
        flat: List[ShortcutTreeEntry] = []
        nexts: List[int] = []
        if tree.roots:
            flat, nexts = _flatten_tree_entries(tree.roots)
        else:
            try:
                local_values = [(index[n], w) for n, w in tree.local_edges]
            except KeyError:  # neighbour outside the compiled node space
                return None

        # --- shape check against the compiled spans ------------------------
        if len(flat) != e1 - e0:
            return None
        l0, l1 = self._local_start[idx], self._local_start[idx + 1]
        if len(local_values) != l1 - l0:
            return None
        sc_values: List[List[Tuple[int, float]]] = []
        ed_values: List[List[Tuple[int, float]]] = []
        for i, (entry, nxt) in enumerate(zip(flat, nexts)):
            slot = self._rnet_index.get(entry.rnet_id)
            if slot is None or self._entry_rnet[e0 + i] != slot:
                return None
            if self._entry_next[e0 + i] != e0 + nxt:
                return None
            try:
                sc = [(index[s.target], s.distance) for s in entry.shortcuts]
                ed = [(index[n], w) for n, w in entry.edges]
            except KeyError:  # target outside the compiled node space
                return None
            if len(sc) != self._sc_start[e0 + i + 1] - self._sc_start[e0 + i]:
                return None
            if len(ed) != self._ed_start[e0 + i + 1] - self._ed_start[e0 + i]:
                return None
            sc_values.append(sc)
            ed_values.append(ed)
        return idx, sc_values, ed_values, local_values

    def _write_tree_patch(self, patch: _TreePatch) -> None:
        """Rewrite the targets/weights of one node's spans in place.

        Span rewrites are slice assignments, which every backend honours
        on its native array type (lists, stdlib typed arrays and the
        shared-memory vectors alike) — the planner already guaranteed
        each new span has exactly the compiled size.
        """
        idx, sc_values, ed_values, local_values = patch
        B = self._backend
        e0 = self._entry_start[idx]
        sc_start, sc_target, sc_weight = (
            self._sc_start, self._sc_target, self._sc_weight
        )
        ed_start, ed_target, ed_weight = (
            self._ed_start, self._ed_target, self._ed_weight
        )
        for i, values in enumerate(sc_values):
            if values:
                a, b = sc_start[e0 + i], sc_start[e0 + i + 1]
                sc_target[a:b] = B.int_values([t for t, _ in values])
                sc_weight[a:b] = B.float_values([w for _, w in values])
        for i, values in enumerate(ed_values):
            if values:
                a, b = ed_start[e0 + i], ed_start[e0 + i + 1]
                ed_target[a:b] = B.int_values([t for t, _ in values])
                ed_weight[a:b] = B.float_values([w for _, w in values])
        if local_values:
            a, b = self._local_start[idx], self._local_start[idx + 1]
            self._local_target[a:b] = B.int_values(
                [t for t, _ in local_values]
            )
            self._local_weight[a:b] = B.float_values(
                [w for _, w in local_values]
            )

    def _rebuild_node_objects(
        self, road: "ROAD", nodes: Sequence[int], state: _DirectoryState
    ) -> None:
        """Replace one directory's object spans of ``nodes`` from live state.

        Handles growth, shrink and reordering by splicing the directory's
        object arrays (and every cached per-predicate object mask) and
        shifting the following span starts.  A size-changing splice costs
        O(object slots + node count) — a single C-level memmove plus one
        integer-add pass over the span starts, tiny constants next to a
        full recompile's tree rebuild — while the shortcut-tree arrays
        (the O(network·levels) bulk of the snapshot, shared by every
        directory) are never touched.
        """
        assoc = road.directory(state.name)
        B = self._backend
        obj_start = state.obj_start
        for node in sorted(set(nodes)):
            idx = self._index[node]
            a, b = obj_start[idx], obj_start[idx + 1]
            entries = assoc.peek_node_objects(node)
            state.obj_id[a:b] = B.int_values(
                [o.object_id for o, _ in entries]
            )
            state.obj_delta[a:b] = B.float_values(
                [delta for _, delta in entries]
            )
            state.obj_ref[a:b] = [o for o, _ in entries]
            for predicate, mask in state.obj_masks.items():
                mask[a:b] = bytes(
                    1 if predicate.matches(o) else 0 for o, _ in entries
                )
            shift = len(entries) - (b - a)
            if shift:
                for i in range(idx + 1, len(obj_start)):
                    obj_start[i] += shift

    def _refresh_abstracts(
        self, road: "ROAD", rnet_ids: Iterable[int], state: _DirectoryState
    ) -> None:
        """Re-snapshot one directory's ``rnet_ids`` abstracts + mask slots.

        A mask whose bit flips turns ChoosePath the other way at every
        border that consults the slot, so its table is reset; a mask
        whose bits all hold keeps its table.
        """
        assoc = road.directory(state.name)
        for rnet_id in sorted(rnet_ids):
            slot = self._rnet_index.get(rnet_id)
            if slot is None:  # never referenced by any compiled entry
                continue
            abstract = assoc.peek_rnet_abstract(rnet_id)
            snapshot = copy.deepcopy(abstract) if abstract is not None else None
            state.abstracts[slot] = snapshot
            for predicate, table in state.rnet_masks.items():
                bit = snapshot is not None and snapshot.may_contain(predicate)
                if bool(table.may[slot]) != bit:
                    table.may[slot] = bit
                    table.reset()

    # ------------------------------------------------------------------
    # Cached view lifecycle
    # ------------------------------------------------------------------
    def _drop_views(self) -> None:
        """Release all cached array views before mutating the arrays.

        A size-changing object splice in :meth:`_rebuild_node_objects`
        leaves the cached views of the old span layout stale; they
        rebuild lazily on the next query.  A suspended
        :meth:`iter_nearest_objects` sweep still holds the old ones in
        its frame: close it first (see :meth:`apply`).
        """
        self._views = None
        self._slot_rnets = None
        for state in self._dirs.values():
            state.views = None

    def _drop_paths(self) -> None:
        """Forget every cached ChoosePath result, shared and per mask."""
        self._paths: List[Optional[_Pairs]] = [None] * len(self.node_ids)
        #: non-None entries of ``_paths``, kept so counting them is O(1)
        self._shared_paths = 0
        for state in self._dirs.values():
            for table in state.rnet_masks.values():
                table.reset()

    def _reset_paths(self, codes: Iterable[int]) -> None:
        """Forget the cached ChoosePath results of ``codes`` only."""
        codes = list(codes)
        paths = self._paths
        for code in codes:
            if paths[code] is not None:
                paths[code] = None
                self._shared_paths -= 1
        for state in self._dirs.values():
            for table in state.rnet_masks.values():
                table.reset(codes)

    def _intern_codes(self) -> Optional[List[int]]:
        """One int object per node code, for the pairs ChoosePath caches.

        Reading a typed buffer boxes a fresh int per element, so off the
        list backend every cached pair would own its target's box; mapped
        through this list, all pairs share one box per node.  Node ids
        equal their codes on generated networks, and then ``node_ids``
        is that list already.  ``None`` on the list backend, whose pairs
        point at the arrays' own boxes.
        """
        if self._backend.name == "list":
            return None
        ids = self.node_ids
        if all(node == code for code, node in enumerate(ids)):
            return ids
        return list(range(len(ids)))

    def _array_views(self) -> Tuple[Any, ...]:
        """The shared-array views ChoosePath indexes, built per snapshot.

        List backend: the arrays themselves.  Shm: the vectors' payload
        memoryviews — constructing them once here keeps them out of the
        per-query hot path.  Mmap: the stored casts, as they are.  Order
        matches the unpacking in :meth:`_choose_path`; the per-directory
        object views come from :meth:`_object_views`.
        """
        views = self._views
        if views is None:
            vw = self._backend.view
            views = (
                vw(self._entry_start),
                vw(self._entry_rnet),
                vw(self._entry_next),
                vw(self._sc_start),
                vw(self._sc_target),
                vw(self._sc_weight),
                vw(self._ed_start),
                vw(self._ed_target),
                vw(self._ed_weight),
                vw(self._local_start),
                vw(self._local_target),
                vw(self._local_weight),
            )
            self._views = views
        return views

    def _object_views(self, state: _DirectoryState) -> Tuple[Any, Any, Any]:
        """One directory's (obj_start, obj_id, obj_delta) query views."""
        views = state.views
        if views is None:
            vw = self._backend.view
            views = (
                vw(state.obj_start),
                vw(state.obj_id),
                vw(state.obj_delta),
            )
            state.views = views
        return views

    # ------------------------------------------------------------------
    # Directory resolution
    # ------------------------------------------------------------------
    def _state(self, directory: Optional[str] = None) -> _DirectoryState:
        """The compiled state a query's ``directory=`` routes to.

        ``None`` means :attr:`default_directory` — the *configured*
        default, never "the first compiled".  Unknown names raise the
        serving layer's :class:`UnknownDirectoryError`.
        """
        if directory is None:
            directory = self._default_directory
        state = self._dirs.get(directory)
        if state is None:
            raise UnknownDirectoryError(self, directory, self._dirs)
        return state

    def object_refs(
        self, directory: Optional[str] = None
    ) -> List[SpatialObject]:
        """The snapshotted object references of one compiled directory."""
        return list(self._state(directory).obj_ref)

    # ------------------------------------------------------------------
    # Predicate compilation (the shared cache of the batch layer)
    # ------------------------------------------------------------------
    def _rnet_mask(
        self, state: _DirectoryState, predicate: Predicate
    ) -> _PathTable:
        """Per-Rnet "may contain an object of interest" bitmask + table.

        The mask is, on the list backend, a list of bools; on shm/mmap a
        process-local bytearray — ChoosePath only needs truthy indexing,
        and the patch paths only need item assignment, which both
        honour.  Cached per (directory, predicate): two directories
        never share a mask, however equal their predicates.  The mask
        rides in the :class:`_PathTable` of the ChoosePath results it
        decides, so an evicted predicate frees both.
        """
        table = state.rnet_masks.get(predicate)
        if table is None:
            table = _PathTable(
                self._backend.bool_mask(
                    abstract is not None and abstract.may_contain(predicate)
                    for abstract in state.abstracts
                )
            )
            self._cache_put(state, state.rnet_masks, predicate, table)
        else:
            # LRU refresh: a re-seen predicate moves to the young end.
            state.rnet_masks[predicate] = state.rnet_masks.pop(predicate)
        return table

    def _object_mask(
        self, state: _DirectoryState, predicate: Predicate
    ) -> Optional[bytearray]:
        """Per-object-slot predicate match mask (None = unconstrained)."""
        if predicate.is_unconstrained:
            return None
        mask = state.obj_masks.get(predicate)
        if mask is None:
            mask = bytearray(len(state.obj_ref))
            for j, obj in enumerate(state.obj_ref):
                mask[j] = predicate.matches(obj)
            self._cache_put(state, state.obj_masks, predicate, mask)
        else:
            state.obj_masks[predicate] = state.obj_masks.pop(predicate)
        return mask

    def _cache_put(
        self,
        state: _DirectoryState,
        cache: Dict[Predicate, Any],
        key: Predicate,
        value: Any,
    ) -> None:
        """Insert into one directory's bounded mask cache, LRU-evicting.

        Both mask caches (per-Rnet and per-object-slot) are insertion-
        ordered dicts whose hit paths re-insert the key, so the first
        entry is always the least recently used.  Each cache holds at
        most :data:`MAX_CACHED_PREDICATES` masks; evictions count into
        ``state.mask_evictions`` (surfaced by :meth:`memory_stats` /
        ``RoadService.stats()``).  Masks are process-local heap objects
        on every backend, so an evicted one is simply garbage.
        """
        while len(cache) >= MAX_CACHED_PREDICATES:
            cache.pop(next(iter(cache)))
            state.mask_evictions += 1
        cache[key] = value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(
        self,
        node: int,
        k: int,
        predicate: Predicate = ANY,
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> List[ResultEntry]:
        """kNNSearch (Figure 9) against the compiled arrays."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self._collect((node,), predicate, stats, directory, k=k)

    def range(
        self,
        node: int,
        radius: float,
        predicate: Predicate = ANY,
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> List[ResultEntry]:
        """RangeSearch (Section 4) against the compiled arrays."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return self._collect(
            (node,), predicate, stats, directory, radius=radius
        )

    def aggregate_knn(
        self,
        nodes: Sequence[int],
        k: int,
        agg: str = "sum",
        predicate: Predicate = ANY,
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> List[ResultEntry]:
        """Aggregate kNN on the compiled arrays (zero pager traffic).

        Same lockstep-expansion algorithm as the charged
        :func:`repro.core.aggregate.aggregate_knn`, fed by this snapshot's
        :meth:`iter_nearest_objects`; identical answers by construction.
        """
        return aggregate_knn_generic(
            lambda node: self.iter_nearest_objects(
                node, predicate, stats, directory=directory
            ),
            list(nodes),
            k,
            agg,
        )

    def od_matrix(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> List[ODMatrixEntry]:
        """Many-to-many network distances against the compiled arrays.

        One :meth:`_sweep` per distinct source over the targets instead
        of a directory's objects (:meth:`_target_goal`), stopped once
        every target has settled.  Cells are returned row-major with
        ``inf`` for unreachable pairs.  ``directory`` only routes
        admission — the matrix itself is a pure network product.
        """
        self._state(directory)
        if not sources:
            raise ValueError("need at least one source node")
        codes = [self._code(node) for node in dict.fromkeys(targets)]
        goal = self._target_goal(codes)
        return od_entries(
            sources,
            targets,
            lambda source: self._sweep(
                (source,), ANY, stats, directory, k=len(codes), goal=goal
            ),
        )

    def service_area(
        self,
        node: int,
        breaks: Sequence[float],
        predicate: Predicate = ANY,
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> List[ServiceAreaEntry]:
        """Multi-break isochrone against the compiled arrays.

        A RangeSearch sweep cut at ``max(breaks)``, with every answer
        tagged by the first break covering it.
        """
        cut = normalize_breaks(breaks)
        entries = self._collect(
            (node,), predicate, stats, directory, radius=cut[-1]
        )
        return bucket_entries(entries, cut)

    def route_knn(
        self,
        path: Sequence[int],
        k: int,
        predicate: Predicate = ANY,
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> List[ResultEntry]:
        """In-route kNN: the k best objects by detour from ``path``.

        Every path node seeds the one sweep at distance 0, so an
        answer's distance is the smallest detour from any point of the
        route; the k-cutoff drains ties and resolves them canonically by
        (distance, id).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        seeds = list(path)
        if not seeds:
            raise ValueError("need at least one path node")
        found = self._collect(
            seeds, predicate, stats, directory, k=k, drain_ties=True
        )
        return sort_result(found)[:k]

    # ``execute`` / ``execute_many`` are inherited from QueryExecutor and
    # call the method above that the query's kind names.  Predicate
    # state (Rnet masks, object match masks) is memoised on the snapshot
    # itself, so a workload with few distinct predicates compiles each
    # predicate once regardless of batching.

    def has_node(self, node: int) -> bool:
        return node in self._index

    @property
    def directory_names(self) -> List[str]:
        """The directories this snapshot compiled, in compiled order.

        Authoritative for the serving layer: ``check_directory`` /
        ``execute(directory=...)`` accept exactly these names.
        """
        return list(self._dirs)

    @property
    def frozen(self) -> "FrozenRoad":
        """A snapshot serves itself."""
        return self

    @property
    def default_directory(self) -> str:
        """The directory ``directory=None`` queries route to.

        The *configured* default (``freeze(default=...)``; falling back
        to ``"objects"`` when compiled, else the first compiled name) —
        not simply whichever directory happened to compile first.
        """
        return self._default_directory

    def iter_nearest_objects(
        self,
        node: int,
        predicate: Predicate = ANY,
        stats: Optional[SearchStats] = None,
        *,
        directory: Optional[str] = None,
    ) -> Iterator[Tuple[float, int]]:
        """Lazily yield (distance, object_id) in non-descending distance.

        The unbounded sweep itself: it advances only as far as the
        consumer pulls, and ``stats`` receive its counters and footprint
        when it is exhausted or closed.
        """
        return self._sweep((node,), predicate, stats, directory)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Nodes in the compiled index."""
        return len(self.node_ids)

    @property
    def num_objects(self) -> int:
        """Object association slots over every compiled directory
        (objects appear once per host-edge endpoint)."""
        return sum(len(state.obj_ref) for state in self._dirs.values())

    def _arrays(self) -> Dict[str, Sequence]:
        """The compiled CSR arrays by name (introspection/accounting).

        Shared arrays keep their plain names; a multi-directory snapshot
        prefixes each directory's object arrays with its name (a
        single-directory snapshot keeps the historical flat keys).
        """
        arrays: Dict[str, Sequence] = {
            key: getattr(self, f"_{key}") for key in SHARED_ARRAYS
        }
        for name, state in self._dirs.items():
            prefix = self._dir_prefix(name)
            arrays[f"{prefix}obj_start"] = state.obj_start
            arrays[f"{prefix}obj_id"] = state.obj_id
            arrays[f"{prefix}obj_delta"] = state.obj_delta
        return arrays

    def _dir_prefix(self, name: str) -> str:
        """Key prefix of one directory's object arrays in :meth:`_arrays`.

        The single place the naming convention lives — a single-directory
        snapshot keeps the historical flat keys, a multi-directory one
        prefixes each directory's arrays with its name.
        """
        return "" if len(self._dirs) == 1 else f"{name}:"

    @property
    def nbytes(self) -> int:
        """Payload-size estimate of the compiled arrays (8 B/element,
        excluding the object references).  Backend-independent; see
        :meth:`memory_stats` for the resident footprint per backend."""
        return sum(8 * len(a) for a in self._arrays().values())

    def memory_stats(self) -> Dict[str, object]:
        """Resident footprint of the compiled arrays under this backend.

        ``total_bytes`` is what the arrays actually hold on the heap —
        container plus boxed elements for the list backend, the mapped
        typed buffers for shm/mmap — next to ``payload_bytes``, the
        backend-independent 8 B/element ideal (== :attr:`nbytes`).  The
        per-predicate mask caches are reported separately; the
        ``object_refs`` list (shared ``SpatialObject`` instances, one
        pointer per association slot) is counted as pointers only.
        ``directories`` breaks the footprint down per compiled directory
        (its object arrays, reference pointers and mask caches) — the
        remainder of ``total_bytes`` is the entry arrays every directory
        shares.  The cached ChoosePath results (see :meth:`_sweep`) are
        reported beside them, outside ``total_bytes``: the shared
        non-border pairs as ``path_shared_*``, the border entries of
        every mask's table as ``path_table_*`` (per directory too).
        """
        per_array = {
            name: self._backend.resident_bytes(arr)
            for name, arr in self._arrays().items()
        }
        mask_bytes = 0
        mask_entries = 0
        mask_evictions = 0
        path_entries = path_bytes = 0
        per_directory: Dict[str, Dict[str, int]] = {}
        for name, state in self._dirs.items():
            prefix = self._dir_prefix(name)
            tables = state.rnet_masks.values()
            dir_mask_bytes = sum(
                self._backend.resident_bytes(table.may) for table in tables
            ) + sum(sys.getsizeof(mask) for mask in state.obj_masks.values())
            mask_bytes += dir_mask_bytes
            mask_entries += len(state.rnet_masks) + len(state.obj_masks)
            mask_evictions += state.mask_evictions
            dir_path_entries = sum(len(table.pairs) for table in tables)
            dir_path_bytes = sum(self._table_bytes(table) for table in tables)
            path_entries += dir_path_entries
            path_bytes += dir_path_bytes
            per_directory[name] = {
                "object_array_bytes": sum(
                    per_array[f"{prefix}{key}"]
                    for key in ("obj_start", "obj_id", "obj_delta")
                ),
                "object_refs": len(state.obj_ref),
                "object_ref_bytes": sys.getsizeof(state.obj_ref),
                "mask_cache_bytes": dir_mask_bytes,
                "mask_cache_entries": (
                    len(state.rnet_masks) + len(state.obj_masks)
                ),
                "mask_evictions": state.mask_evictions,
                "path_table_entries": dir_path_entries,
                "path_table_bytes": dir_path_bytes,
            }
        stats: Dict[str, object] = {
            "backend": self.backend,
            "arrays": per_array,
            "total_bytes": sum(per_array.values()),
            "payload_bytes": self.nbytes,
            "elements": sum(len(a) for a in self._arrays().values()),
            "object_refs": self.num_objects,
            "object_ref_bytes": sum(
                sys.getsizeof(state.obj_ref) for state in self._dirs.values()
            ),
            "mask_cache_bytes": mask_bytes,
            "mask_cache_entries": mask_entries,
            "mask_budget": MAX_CACHED_PREDICATES,
            "mask_evictions": mask_evictions,
            "path_shared_entries": self._shared_paths,
            "path_shared_bytes": self._shared_paths_bytes(),
            "path_table_entries": path_entries,
            "path_table_bytes": path_bytes,
            "directories": per_directory,
        }
        # Mask caches never appear here: they are process-local bytearrays
        # on every backend, shm included (see ShmBackend's docstring).
        shared = [
            arr.segment_bytes
            for arr in self._arrays().values()
            if isinstance(arr, ShmVector)
        ]
        if shared:
            stats["shm_bytes"] = sum(shared)
        if self._snapshot_path is not None:
            stats["snapshot_path"] = self._snapshot_path
            try:
                stats["snapshot_file_bytes"] = os.path.getsize(
                    self._snapshot_path
                )
            except OSError:
                stats["snapshot_file_bytes"] = 0
        return stats

    def path_stats(self, *, deep: bool = False) -> Dict[str, int]:
        """The cached ChoosePath results under :meth:`memory_stats`' keys.

        ``path_shared_entries`` / ``path_table_entries`` cost O(1) per
        mask table, cheap enough to read after every batch (process
        workers report them so); ``deep`` adds the ``*_bytes`` estimates,
        which walk every cached row.
        """
        tables = [
            table
            for state in self._dirs.values()
            for table in state.rnet_masks.values()
        ]
        stats = {
            "path_shared_entries": self._shared_paths,
            "path_table_entries": sum(len(table.pairs) for table in tables),
        }
        if deep:
            stats["path_shared_bytes"] = self._shared_paths_bytes()
            stats["path_table_bytes"] = sum(
                self._table_bytes(table) for table in tables
            )
        return stats

    def _shared_paths_bytes(self) -> int:
        """Resident-size estimate of the shared (non-border) path table."""
        return sys.getsizeof(self._paths) + self._rows_bytes(
            row for row in self._paths if row is not None
        )

    def _table_bytes(self, table: _PathTable) -> int:
        """Resident-size estimate of one mask's pairs and tallies."""
        return self._rows_bytes(table.pairs.values()) + sum(
            sys.getsizeof(tally) + sys.getsizeof(tally[4])
            for tally in table.tallies.values()
        )

    def _rows_bytes(self, rows: Iterable[Tuple[Any, ...]]) -> int:
        """Resident-size estimate of cached rows of ChoosePath results.

        Each row tuple, plus per item a ``(target, weight)`` pair — and,
        off the list backend, the weight's box a pair read off a typed
        buffer owns (targets share :meth:`_intern_codes`' boxes;
        list-backend pairs point at the arrays' own boxes).
        """
        pair = sys.getsizeof((0, 0.0))
        if self._backend.name != "list":
            pair += sys.getsizeof(0.0)
        return sum(sys.getsizeof(row) + pair * len(row) for row in rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenRoad(nodes={self.num_nodes}, "
            f"entries={len(self._entry_rnet)}, objects={self.num_objects}, "
            f"directories={list(self._dirs)}, "
            f"backend={self.backend}, bytes={self.nbytes})"
        )

    # ------------------------------------------------------------------
    # Internal: the compiled expansion
    # ------------------------------------------------------------------
    def _sweep(
        self,
        seeds: Iterable[int],
        predicate: Predicate,
        stats: Optional[SearchStats],
        directory: Optional[str],
        *,
        k: Optional[int] = None,
        radius: float = _INF,
        drain_ties: bool = False,
        goal: Optional[Tuple[Any, ...]] = None,
    ) -> Iterator[Tuple[float, int]]:
        """The one expansion: yield (distance, object_id), nearest first.

        Every seed enters the heap at distance 0 (duplicates collapse),
        so a yielded distance is the minimum over seeds.  The sweep ends
        when the heap runs dry, when a pop lies beyond ``radius``
        (inclusive bound, RangeSearch), or after the ``k``-th object —
        at once (kNNSearch), or, with ``drain_ties``, once the objects
        tied with the k-th are out too, so a consumer can cut the
        canonical (distance, id) prefix instead of a push-order one.

        The loop is a plain Dijkstra over cached adjacency.  A settled
        node pushes its matching objects, then the ``(target, weight)``
        pairs of its ChoosePath (Fig. 10) — the shortcuts of every Rnet
        the mask bypasses and the edges of every leaf it descends into,
        in the order the charged stack walk pushes them.  Those pairs
        are a pure function of the node and the mask, so
        :meth:`_choose_path` computes them on the node's first pop and
        caches them: a non-border node's in the snapshot's shared table
        (it reads no mask), a border node's in the mask's
        :class:`_PathTable`.  A ``goal`` from :meth:`_target_goal` swaps
        the directory's objects and table for an OD query's targets
        (yielded as their index) and its private table.

        Nothing is counted per relaxation.  A tracked sweep lists the
        codes it settles, and the ``finally`` — on exhaustion, on a stop
        rule, or when the consumer closes the generator early — sums
        their cached charges into ``stats`` (:meth:`_flush_stats`).
        The footprint is **every node the sweep pushed**: the settled
        nodes, the nodes still queued, and the node (if it is one) whose
        pop tripped the bound.  A push to an already-settled node is
        skipped here and kept as a stale duplicate by the charged
        frontier; the rule is blind to that, because a skipped target is
        in the settled set already, and the charges still count it.
        """
        state = self._state(directory)
        # Heap items carry one signed code instead of a (kind, id) pair:
        # nodes are their dense index (>= 0), objects ``~object_id``
        # (< 0).  The heap orders by (distance, seq) exactly like
        # ``search._Frontier`` — seq is unique, so the code is never
        # compared.
        heap: List[Tuple[float, int, int]] = [
            (0.0, seq, code)
            for seq, code in enumerate(dict.fromkeys(map(self._code, seeds)))
        ]
        seq = len(heap)
        if goal is None:
            table = self._rnet_mask(state, predicate)
            omask = self._object_mask(state, predicate)
            obj_start, obj_id, obj_delta = self._object_views(state)
        else:
            table, obj_start, obj_id, obj_delta = goal
            omask = None
        # Bind everything the loop reads to a local once per sweep.
        pop = heapq.heappop
        push = heapq.heappush
        shared = self._paths
        border = table.pairs
        choose_path = self._choose_path

        visited = bytearray(len(self.node_ids))
        seen_objects: Set[int] = set()
        objects_popped = 0
        track = stats is not None
        settled: List[int] = []  # tracked sweeps only: codes in pop order
        try:
            while heap:
                distance, _, code = pop(heap)
                if distance > radius:
                    # Everything else is farther: the bounded space is
                    # done.  The entry that tripped the bound was pushed,
                    # so it rejoins the (no longer ordered) remnant the
                    # footprint is read from.
                    heap.append((distance, 0, code))
                    break
                if code < 0:  # an object: ~object_id
                    oid = ~code
                    if oid in seen_objects:
                        continue
                    seen_objects.add(oid)
                    objects_popped += 1
                    yield distance, oid
                    if objects_popped == k:
                        if not drain_ties:
                            break
                        radius = distance  # only the k-th's ties remain
                    continue
                if visited[code]:
                    continue
                visited[code] = 1
                if track:
                    settled.append(code)
                # SearchObject(AD, node): matching objects in stored order,
                # as the charged `_collect_node_objects` does.
                j = obj_start[code]
                end = obj_start[code + 1]
                while j < end:
                    oid = obj_id[j]
                    if oid not in seen_objects and (omask is None or omask[j]):
                        push(heap, (distance + obj_delta[j], seq, ~oid))
                        seq += 1
                    j += 1
                pairs = shared[code]
                if pairs is None:
                    pairs = border.get(code)
                    if pairs is None:
                        pairs = choose_path(code, shared, table)
                # A push to an already-settled node would only be
                # discarded on pop, so it is skipped; surviving entries
                # keep their relative seq order, so results are unchanged.
                for target, weight in pairs:
                    if not visited[target]:
                        push(heap, (distance + weight, seq, target))
                        seq += 1
        finally:
            if stats is not None:
                self._flush_stats(
                    stats, settled, objects_popped, shared, table, heap
                )

    def _choose_path(
        self, code: int, shared: List[Optional[_Pairs]], table: _PathTable
    ) -> _Pairs:
        """ChoosePath (Fig. 10) at one node, cached; returns its pairs.

        A non-border node has one leaf of physical edges (Fig. 6, n_q)
        and reads no mask: its pairs go to ``shared``.  A border node
        walks its flattened shortcut tree — preorder with a subtree-skip
        pointer per entry — taking the shortcuts of every Rnet the mask
        rules out (bypass) and the edges of every finest Rnet it lets
        in; its pairs and charges go to ``table``.
        """
        (
            entry_start, entry_rnet, entry_next,
            sc_start, sc_target, sc_weight,
            ed_start, ed_target, ed_weight,
            local_start, local_target, local_weight,
        ) = self._array_views()
        boxes = self._code_boxes
        i, end = entry_start[code], entry_start[code + 1]
        if i == end:
            a, b = local_start[code], local_start[code + 1]
            targets = local_target[a:b]
            if boxes is not None:
                targets = map(boxes.__getitem__, targets)
            pairs = shared[code] = tuple(zip(targets, local_weight[a:b]))
            if shared is self._paths:  # not a list dropped mid-sweep
                self._shared_paths += 1
            return pairs
        may = table.may
        out: List[Tuple[int, float]] = []
        examined: List[int] = []
        relaxed = taken = bypassed = descended = 0
        while i < end:
            slot = entry_rnet[i]
            examined.append(slot)
            if may[slot]:
                if entry_next[i] == i + 1:
                    # Finest Rnet with objects of interest: its edges.
                    a, b = ed_start[i], ed_start[i + 1]
                    targets = ed_target[a:b]
                    if boxes is not None:
                        targets = map(boxes.__getitem__, targets)
                    out.extend(zip(targets, ed_weight[a:b]))
                    relaxed += b - a
                else:
                    descended += 1
                i += 1
            else:
                # Bypass: jump straight to the Rnet's other borders.
                a, b = sc_start[i], sc_start[i + 1]
                targets = sc_target[a:b]
                if boxes is not None:
                    targets = map(boxes.__getitem__, targets)
                out.extend(zip(targets, sc_weight[a:b]))
                taken += b - a
                bypassed += 1
                i = entry_next[i]
        pairs = table.pairs[code] = tuple(out)
        table.tallies[code] = (
            relaxed, taken, bypassed, descended, tuple(examined)
        )
        return pairs

    def _flush_stats(
        self,
        stats: SearchStats,
        settled: Sequence[int],
        objects_popped: int,
        shared: List[Optional[_Pairs]],
        table: _PathTable,
        heap: Sequence[Tuple[float, int, int]],
    ) -> None:
        """Charge one finished sweep to ``stats``: counters + footprint.

        Each settled node costs what its ChoosePath costs the charged
        engine: a non-border node relaxes each of its edges, a border
        node charges its tally.  An entry reset since the node settled
        (a patch under a suspended sweep) is recomputed, not guessed.
        """
        relaxed = taken = bypassed = descended = 0
        examined: Set[int] = set()
        tallies = table.tallies
        for code in settled:
            pairs = shared[code]
            if pairs is not None:
                relaxed += len(pairs)
                continue
            tally = tallies.get(code)
            if tally is None:
                pairs = self._choose_path(code, shared, table)
                tally = tallies.get(code, (len(pairs), 0, 0, 0, ()))
            relaxed += tally[0]
            taken += tally[1]
            bypassed += tally[2]
            descended += tally[3]
            examined.update(tally[4])
        stats.nodes_popped += len(settled)
        stats.objects_popped += objects_popped
        stats.edges_relaxed += relaxed
        stats.shortcuts_taken += taken
        stats.rnets_bypassed += bypassed
        stats.rnets_descended += descended
        self._flush_footprint(stats, settled, examined, table.may, heap)

    def _collect(
        self,
        seeds: Iterable[int],
        predicate: Predicate,
        stats: Optional[SearchStats],
        directory: Optional[str],
        **stop: Any,
    ) -> List[ResultEntry]:
        """One sweep run to its stop rule, as result rows in pop order."""
        return [
            ResultEntry(oid, distance)
            for distance, oid in self._sweep(
                seeds, predicate, stats, directory, **stop
            )
        ]

    def _code(self, node: int) -> int:
        """One node id's dense code; unknown ids raise like the queries."""
        try:
            return self._index[node]
        except KeyError:
            raise FrozenRoadError(f"node {node} not in frozen index") from None

    def _target_goal(self, codes: Sequence[int]) -> Tuple[Any, ...]:
        """Distinct OD targets as one query's path table and object spans.

        Target ``i`` (code ``codes[i]``) is object ``i`` on its node at
        offset 0, in a directory's object CSR layout.  The mask marks the
        compiled Rnets holding a target as an interior node (``home_slot``
        up the ``slot_parent`` chain) — the charged twin is
        :class:`repro.core.search.TargetSet`.  Its :class:`_PathTable`
        holds only the border nodes the query's sweeps settle, and goes
        with the query.
        """
        home_slot, slot_parent = self._home_slot, self._slot_parent
        may = bytearray(len(slot_parent))
        for code in codes:
            slot = home_slot[code]
            while slot >= 0 and not may[slot]:
                may[slot] = 1
                slot = slot_parent[slot]
        order = sorted(range(len(codes)), key=codes.__getitem__)
        # obj_start[c] = number of targets whose code is below c
        obj_start: List[int] = []
        for rank, i in enumerate(order):
            obj_start.extend([rank] * (codes[i] + 1 - len(obj_start)))
        tail = len(self.node_ids) + 1 - len(obj_start)
        obj_start.extend([len(codes)] * tail)
        return _PathTable(may), obj_start, order, [0.0] * len(codes)

    def _rnet_ids_by_slot(self) -> Tuple[int, ...]:
        """Rnet ids in slot order: the inverse of ``_rnet_index``.

        The dense codes in ``entry_rnet`` mean nothing outside one
        snapshot, so the footprint must speak real Rnet ids like the
        charged engine.  Built once per snapshot and cached with the
        array views: ``_compile`` / ``from_parts`` / ``_drop_views``
        reset it, which covers every place ``_rnet_index`` can change.
        """
        slot_rnets = self._slot_rnets
        if slot_rnets is None:
            slot_rnets = self._slot_rnets = tuple(
                sorted(self._rnet_index, key=self._rnet_index.__getitem__)
            )
        return slot_rnets

    def _flush_footprint(
        self,
        stats: SearchStats,
        settled: Sequence[int],
        rnet_slots: Set[int],
        may: BoolMask,
        heap: Sequence[Tuple[float, int, int]] = (),
    ) -> None:
        """Record one sweep's examined nodes + Rnets, translated to ids.

        ``settled`` lists the codes the sweep settled (each once, as it
        settled them, matching the charged pop-time recording) and
        ``heap`` the unpopped remnant, the entry that tripped the bound
        included — together every node the sweep pushed (see
        :meth:`_sweep`): the frontier boundary is part of the footprint
        because a patch on an exactly-tied boundary node can reach into
        the answer.  ``rnet_slots`` are the examined entries' slots and
        ``may`` the mask the sweep read them through, so the bypassed
        ones — the slots ``may`` rejects — need no bookkeeping in the
        hot loop.

        Cost: one C-level ``map`` over the settled codes, so a footprint
        costs a fraction of the search it records, never a second pass
        over it.
        """
        node_ids = self.node_ids
        visited_nodes = stats.visited_nodes
        visited_nodes.update(map(node_ids.__getitem__, settled))
        visited_nodes.update(node_ids[code] for _, _, code in heap if code >= 0)
        if rnet_slots:
            rnet_ids = self._rnet_ids_by_slot()
            stats.visited_rnets.update(map(rnet_ids.__getitem__, rnet_slots))
            stats.bypassed_rnets.update(
                rnet_ids[slot] for slot in rnet_slots if not may[slot]
            )
