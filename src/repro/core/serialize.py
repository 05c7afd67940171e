"""Index persistence: save a built ROAD framework to bytes and reload it.

Partitioning and shortcut computation dominate build time (Figure 19's
index-time curve); persisting them lets a deployment reopen an index in
seconds.  The on-disk format reuses the record codecs of
:mod:`repro.storage.codecs`, so the same layouts that drive page-occupancy
accounting also round-trip through real bytes.

Format (little-endian, section order fixed)::

    magic "ROADIDX1" | metric | reduce-flag
    nodes   : count, then (id, x, y) records
    edges   : count, then (u, v, distance) triples
    rnets   : count, then (id, level, child-ids, edge-pair list)
    shortcuts: count, then (source, target, rnet, distance, via list)
    directories: count, then name + object records (with host edges)

Attached directories are saved with their objects; abstracts are rebuilt on
load (they are derived data), using the factory given to :func:`load_road`.

A second, independent format persists **compiled frozen snapshots**
(:func:`save_snapshot` / :func:`load_snapshot`): the CSR array buffers of a
:class:`~repro.core.frozen.FrozenRoad` written sectioned and checksummed,
so a cold serving worker can ``mmap`` the file and answer queries with
**zero recompilation** — no ROAD rebuild, no charged directory export, no
pager traffic.  Layout (little-endian)::

    magic "ROADSNP1" | u64 payload-length | sha256(payload)
    payload:  u64 meta-length | pickled meta | pad to 8 | array blob

where meta carries the id spaces, per-directory object references and
abstract snapshots, and an array table ``(key, typecode, length, offset,
nbytes)`` with 8-aligned blob offsets — every array is directly castable
in place.  The sha256 is verified before the meta pickle is touched.
"""

from __future__ import annotations

import hashlib
import mmap
import pickle
import struct
import sys
from array import array
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from repro.core.framework import ROAD, BuildReport
from repro.core.frozen import SHARED_ARRAYS, FrozenRoad
from repro.core.frozen_backends import (
    ListBackend,
    TypedBufferBackend,
    resolve_backend,
)
from repro.core.shm_arrays import ShmVector
from repro.core.object_abstract import AbstractFactory, exact_abstract
from repro.core.rnet import RnetHierarchy
from repro.core.route_overlay import RouteOverlay
from repro.core.shortcuts import Shortcut, ShortcutIndex
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.partition.hierarchy import PartitionNode
from repro.storage import codecs
from repro.storage.pager import PageManager

MAGIC = b"ROADIDX1"
_U32 = struct.Struct("<I")

PathLike = Union[str, Path]


class SerializeError(Exception):
    """Raised on malformed index files."""


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def save_road(road: ROAD, path: PathLike) -> int:
    """Write a built framework to ``path``; returns bytes written."""
    with open(path, "wb") as handle:
        return _write(road, handle)


def _write(road: ROAD, out: BinaryIO) -> int:
    written = out.write(MAGIC)
    written += out.write(codecs.encode_str(road.network.metric))
    written += out.write(bytes([1 if road.shortcuts.reduce else 0]))

    network = road.network
    written += out.write(_U32.pack(network.num_nodes))
    for node in sorted(network.node_ids()):
        x, y = network.coords(node)
        written += out.write(codecs.encode_node_record(node, x, y))

    edges = sorted(network.edges())
    written += out.write(_U32.pack(len(edges)))
    for u, v, distance in edges:
        written += out.write(codecs.encode_int(u))
        written += out.write(codecs.encode_int(v))
        written += out.write(codecs.encode_float(distance))

    rnets = sorted(road.hierarchy.rnets(), key=lambda r: r.rnet_id)
    leaf_edges = road.hierarchy.edges_by_leaf()
    written += out.write(_U32.pack(len(rnets)))
    for rnet in rnets:
        written += out.write(codecs.encode_int(rnet.rnet_id))
        written += out.write(codecs.encode_int(rnet.level))
        written += out.write(codecs.encode_int_list(sorted(rnet.children)))
        flat: List[int] = []
        for u, v in sorted(leaf_edges.get(rnet.rnet_id, ())):
            flat.extend((u, v))
        written += out.write(codecs.encode_int_list(flat))

    shortcuts = [
        shortcut
        for rnet in rnets
        for shortcut in road.shortcuts.of_rnet(rnet.rnet_id)
    ]
    written += out.write(_U32.pack(len(shortcuts)))
    for shortcut in shortcuts:
        written += out.write(codecs.encode_int(shortcut.source))
        written += out.write(
            codecs.encode_shortcut(
                shortcut.target,
                shortcut.distance,
                shortcut.rnet_id,
                list(shortcut.via),
            )
        )

    names = road.directory_names
    written += out.write(_U32.pack(len(names)))
    for name in names:
        directory = road.directory(name)
        written += out.write(codecs.encode_str(name))
        written += out.write(_U32.pack(directory.object_count))
        for obj in directory.objects:
            written += out.write(
                codecs.encode_object_record(
                    obj.object_id, obj.edge[0], obj.delta, obj.attrs
                )
            )
            written += out.write(codecs.encode_int(obj.edge[1]))
    return written


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_road(
    path: PathLike,
    *,
    buffer_pages: int = 50,
    abstract_factory: AbstractFactory = exact_abstract,
) -> ROAD:
    """Reload a framework saved by :func:`save_road`.

    The Route Overlay pages and directory abstracts are rebuilt (cheap);
    the persisted partitioning and shortcut sets are reused as-is.
    """
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise SerializeError(f"{path}: not a ROAD index file")
    offset = len(MAGIC)
    metric, offset = codecs.decode_str(data, offset)
    reduce_flag = bool(data[offset])
    offset += 1

    network = RoadNetwork(metric=metric)
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    for _ in range(count):
        (node, x, y), offset = codecs.decode_node_record(data, offset)
        network.add_node(node, x, y)
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    for _ in range(count):
        u, offset = codecs.decode_int(data, offset)
        v, offset = codecs.decode_int(data, offset)
        distance, offset = codecs.decode_float(data, offset)
        network.add_edge(u, v, distance)

    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    records = []
    for _ in range(count):
        rnet_id, offset = codecs.decode_int(data, offset)
        level, offset = codecs.decode_int(data, offset)
        children, offset = codecs.decode_int_list(data, offset)
        flat, offset = codecs.decode_int_list(data, offset)
        edges = frozenset(
            (flat[i], flat[i + 1]) for i in range(0, len(flat), 2)
        )
        records.append((rnet_id, level, children, edges))
    tree = _rebuild_tree(records)
    hierarchy = RnetHierarchy(network, tree)

    shortcuts = ShortcutIndex(reduce=reduce_flag)
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    for _ in range(count):
        source, offset = codecs.decode_int(data, offset)
        (target, rnet_id, distance, via), offset = codecs.decode_shortcut(
            data, offset
        )
        shortcuts.put(Shortcut(source, target, rnet_id, distance, tuple(via)))

    pager = PageManager(buffer_pages=buffer_pages, name="road")
    overlay = RouteOverlay(pager, network, hierarchy, shortcuts)
    road = ROAD(network, hierarchy, shortcuts, overlay, pager, BuildReport())

    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    for _ in range(count):
        name, offset = codecs.decode_str(data, offset)
        (obj_count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        objects = ObjectSet()
        for _ in range(obj_count):
            (oid, u, delta, attrs), offset = codecs.decode_object_record(
                data, offset
            )
            v, offset = codecs.decode_int(data, offset)
            objects.add(SpatialObject(oid, (u, v), delta, attrs))
        road.attach_objects(
            objects, name=name, abstract_factory=abstract_factory
        )
    return road


def _rebuild_tree(records) -> PartitionNode:
    """Reassemble the PartitionNode tree from flat Rnet records.

    Leaf records carry their edge sets; internal records carry none and
    their edge sets stay empty: :class:`RnetHierarchy` reads only leaves.
    """
    by_id: Dict[int, PartitionNode] = {}
    children_of: Dict[int, List[int]] = {}
    child_ids = set()
    for rnet_id, level, children, edges in records:
        by_id[rnet_id] = PartitionNode(rnet_id, level, edges)
        children_of[rnet_id] = children
        child_ids.update(children)
    roots = [rid for rid, _, _, _ in records if rid not in child_ids]
    if len(roots) != 1:
        raise SerializeError(f"expected one root Rnet, found {len(roots)}")

    for rnet_id, children in children_of.items():
        by_id[rnet_id].children = [by_id[child_id] for child_id in children]
    return by_id[roots[0]]


# ---------------------------------------------------------------------------
# Frozen snapshots: sectioned + checksummed compiled-array files
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"ROADSNP1"
SNAPSHOT_VERSION = 1
_U64 = struct.Struct("<Q")
#: magic | u64 payload-length | sha256 digest — everything before payload.
_SNAPSHOT_HEADER_BYTES = len(SNAPSHOT_MAGIC) + _U64.size + 32

#: Compiled arrays stored as float64; every other array is int64.
_SNAPSHOT_FLOAT_KEYS = frozenset(
    {"sc_weight", "ed_weight", "local_weight", "obj_delta"}
)


def _snapshot_typecode(key: str) -> str:
    """Array typecode for one :meth:`FrozenRoad._arrays` key.

    Directory-prefixed object arrays (``"poi:obj_delta"``) carry the
    same base layout as their flat single-directory forms.
    """
    base = key.rsplit(":", 1)[-1]
    return "d" if base in _SNAPSHOT_FLOAT_KEYS else "q"


def _array_payload(arr: Any, typecode: str) -> bytes:
    """One compiled array's raw little-endian payload bytes."""
    if isinstance(arr, ShmVector):
        return arr.tobytes()
    if isinstance(arr, array) and arr.typecode == typecode:
        return arr.tobytes()
    if isinstance(arr, memoryview):
        return bytes(arr)
    # list backend (or any other sequence): stage through a typed array.
    return array(typecode, arr).tobytes()


def save_snapshot(frozen: FrozenRoad, path: PathLike) -> int:
    """Write one compiled snapshot to ``path``; returns bytes written.

    Works for every backend — the buffers are serialised in the canonical
    typed-array layout, so a snapshot saved from a ``"list"`` compile and
    one saved from ``"shm"`` are byte-identical.  Predicate masks are
    derived data and are not persisted (they recompile lazily on load).
    """
    parts = frozen.export_parts()
    table: List[Tuple[str, str, int, int, int]] = []
    chunks: List[bytes] = []
    blob_len = 0
    for key, arr in parts["arrays"].items():
        typecode = _snapshot_typecode(key)
        payload = _array_payload(arr, typecode)
        pad = (-blob_len) % 8
        if pad:
            chunks.append(b"\0" * pad)
            blob_len += pad
        table.append((key, typecode, len(arr), blob_len, len(payload)))
        chunks.append(payload)
        blob_len += len(payload)
    # NOTE: deliberately backend-free — a snapshot is the canonical array
    # bytes, so saves from any backend are byte-identical and the loader
    # picks its own representation.
    meta = {
        "version": SNAPSHOT_VERSION,
        "node_ids": parts["node_ids"],
        "rnet_slots": parts["rnet_slots"],
        "default_directory": parts["default_directory"],
        "arrays": table,
        "directories": parts["directories"],
    }
    meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    head = _U64.pack(len(meta_blob)) + meta_blob
    head += b"\0" * ((-len(head)) % 8)
    payload_bytes = head + b"".join(chunks)
    digest = hashlib.sha256(payload_bytes).digest()
    with open(path, "wb") as out:
        written = out.write(SNAPSHOT_MAGIC)
        written += out.write(_U64.pack(len(payload_bytes)))
        written += out.write(digest)
        written += out.write(payload_bytes)
    return written


class _SnapshotFile:
    """Owns one mapped snapshot file and every buffer exported from it.

    The mmap cannot close while any exported memoryview is alive, so the
    mapping and all views derived from it (the payload/blob slices and
    the per-array casts) release together, views first.
    """

    def __init__(self, handle: BinaryIO, mapping: mmap.mmap) -> None:
        self._handle = handle
        self._mmap = mapping
        self._views: List[memoryview] = []
        self._closed = False

    def track(self, *views: memoryview) -> None:
        self._views.extend(views)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        while self._views:
            self._views.pop().release()
        self._mmap.close()
        self._handle.close()


class _SnapshotViewBackend(TypedBufferBackend):
    """Read-only serving over an mmapped snapshot file.

    The compiled arrays ARE the file's pages — int64/float64 memoryview
    casts straight into the mapping, so cold start costs one sha256 pass
    (page-cache warm-up) and zero array copies.  Patching is refused
    (``patchable = False``): the file is shared, immutable truth; a
    deployment that needs live maintenance loads the snapshot into a
    patchable backend instead (``load_snapshot(path, backend="list")``).
    """

    name = "mmap"
    patchable = False

    def __init__(self, source: _SnapshotFile) -> None:
        self._source = source

    def view(self, arr: Any) -> Any:
        """Identity: the stored arrays are already memoryview casts."""
        return arr

    def resident_bytes(self, arr: Any) -> int:
        """File-backed bytes of one array (resident only when touched)."""
        if isinstance(arr, memoryview):
            return arr.nbytes
        return sys.getsizeof(arr)

    def close(self) -> None:
        """Release every array view and unmap the file; idempotent."""
        self._source.close()


def _map_snapshot(path: PathLike) -> Tuple[BinaryIO, mmap.mmap, memoryview]:
    """Map ``path`` read-only; the single place snapshot buffers export.

    Every downstream buffer (payload slice, blob slice, array casts) is
    derived from the returned view and must be released — via
    :class:`_SnapshotFile` — before the mapping can close.
    """
    handle = open(path, "rb")
    try:
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (ValueError, OSError):
        handle.close()
        raise
    return handle, mapping, memoryview(mapping)


def _parse_snapshot(
    path: PathLike, buf: memoryview
) -> Tuple[Dict[str, Any], memoryview]:
    """Verify ``buf`` and return ``(meta, blob-view)``.

    The sha256 over the full payload is checked *before* the meta pickle
    is deserialised — a corrupted or truncated file fails closed with
    :class:`SerializeError`, never with a pickle error (or worse, a
    silently wrong snapshot).
    """
    if len(buf) < _SNAPSHOT_HEADER_BYTES:
        raise SerializeError(f"{path}: snapshot header truncated")
    if bytes(buf[: len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
        raise SerializeError(f"{path}: not a ROAD snapshot file")
    (payload_len,) = _U64.unpack_from(buf, len(SNAPSHOT_MAGIC))
    digest = bytes(buf[len(SNAPSHOT_MAGIC) + _U64.size : _SNAPSHOT_HEADER_BYTES])
    if _SNAPSHOT_HEADER_BYTES + payload_len != len(buf):
        raise SerializeError(
            f"{path}: snapshot payload length mismatch (header says "
            f"{payload_len}, file carries "
            f"{len(buf) - _SNAPSHOT_HEADER_BYTES})"
        )
    payload = buf[_SNAPSHOT_HEADER_BYTES:]
    try:
        if hashlib.sha256(payload).digest() != digest:
            raise SerializeError(
                f"{path}: snapshot checksum mismatch — file is corrupted"
            )
        (meta_len,) = _U64.unpack_from(payload, 0)
        meta_end = _U64.size + meta_len
        if meta_end > len(payload):
            raise SerializeError(f"{path}: snapshot meta section truncated")
        meta = pickle.loads(bytes(payload[_U64.size : meta_end]))
    finally:
        payload.release()
    if not isinstance(meta, dict) or meta.get("version") != SNAPSHOT_VERSION:
        raise SerializeError(
            f"{path}: unsupported snapshot version "
            f"{meta.get('version') if isinstance(meta, dict) else meta!r}"
        )
    missing = set(SHARED_ARRAYS) - {entry[0] for entry in meta["arrays"]}
    if missing:
        raise SerializeError(
            f"{path}: snapshot lacks the compiled arrays "
            f"{', '.join(sorted(missing))} (saved by an older version); "
            "re-freeze the ROAD and save the snapshot again"
        )
    blob_start = _SNAPSHOT_HEADER_BYTES + meta_end + ((-meta_end) % 8)
    return meta, buf[blob_start:]


def load_snapshot(
    path: PathLike,
    *,
    backend: Optional[Union[str, ListBackend]] = None,
) -> FrozenRoad:
    """Reload a compiled snapshot saved by :func:`save_snapshot`.

    With ``backend=None`` (the default cold-start path) the arrays are
    memoryview casts straight into the mmapped file: queries serve with
    no recompilation and no copies, and the snapshot is read-only —
    ``apply`` raises, and ``close()`` unmaps the file.  Passing a backend
    name (or instance) instead materialises the arrays into that backend
    — ``backend="list"`` for a patchable heap copy, ``backend="shm"`` to
    seed a process pool's shared segments from a snapshot file.  A
    ``mask_budget`` key that files saved before 1.6 carry is ignored.
    """
    handle, mapping, buf = _map_snapshot(path)
    source = _SnapshotFile(handle, mapping)
    source.track(buf)
    keep_mapped = False
    try:
        meta, blob = _parse_snapshot(path, buf)
        source.track(blob)
        chosen = (
            _SnapshotViewBackend(source)
            if backend is None
            else resolve_backend(backend)
        )
        arrays: Dict[str, Any] = {}
        for key, typecode, length, offset, nbytes in meta["arrays"]:
            if backend is None:
                arr: Any = blob[offset : offset + nbytes].cast(typecode)
                source.track(arr)
            else:
                arr = array(typecode, bytes(blob[offset : offset + nbytes]))
            if len(arr) != length:
                raise SerializeError(f"{path}: array {key!r} length mismatch")
            if backend is None:
                arrays[key] = arr
            elif typecode == "d":
                arrays[key] = chosen.float_array(arr)
            else:
                arrays[key] = chosen.int_array(arr)
        frozen = FrozenRoad.from_parts(
            backend=chosen,
            arrays=arrays,
            node_ids=meta["node_ids"],
            rnet_slots=meta["rnet_slots"],
            directories=meta["directories"],
            default_directory=meta["default_directory"],
            snapshot_path=str(path),
        )
        keep_mapped = backend is None
        return frozen
    finally:
        if not keep_mapped:
            source.close()
