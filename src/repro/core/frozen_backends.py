"""Array layouts for the :class:`~repro.core.frozen.FrozenRoad`.

The compiled CSR arrays (entry offsets, shortcut/edge targets and weights,
object ids and deltas) have one logical layout.  How a snapshot stores
them follows from who reads it; no user-set option chooses:

* ``"list"`` — every heap snapshot (``road.freeze()``, the engine's own
  snapshot, thread replicas).  Plain Python lists of pre-boxed
  ints/floats: hot-loop indexing returns existing objects without boxing
  a fresh int/float per access, the fastest pure-Python query path.
* ``"shm"`` — the snapshot process workers attach.  Stdlib typed buffers
  in anonymous ``os.memfd_create`` segments
  (:class:`repro.core.shm_arrays.ShmVector`), so worker *processes*
  attach the same snapshot zero-copy by descriptor and the primary's
  ``apply()`` patch writes land in every attached process at once.  The
  service freezes it for its process pool itself.  Requires a host with
  ``memfd_create`` (Linux); see ``installed_backends``.
* ``"mmap"`` — a snapshot file loaded by
  :func:`repro.core.serialize.load_snapshot`: read-only memoryview casts
  into the mapped file.  Not a ``freeze`` choice, so not in
  :data:`BACKENDS`.

``shm`` and ``mmap`` share the typed-buffer methods of
:class:`TypedBufferBackend`, which no name selects.  Every backend serves
byte-identical answers — the equivalence probes
(:func:`repro.eval.metrics.snapshot_divergences`) hold across all of them
— and the patchable ones support the incremental-freeze patch lifecycle:
span rewrites are slice assignments (``arr[a:b] = values``), which lists
and the shared-memory vectors both honour.  None of them needs numpy;
nothing in the package does.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.shm_arrays import ShmVector, shared_memory_available

#: One compiled integer CSR array, whichever backend materialised it.
IntVector = Union[List[int], "array[int]", ShmVector]
#: One compiled float CSR array.
FloatVector = Union[List[float], "array[float]", ShmVector]
#: One per-slot predicate mask.
BoolMask = Union[List[bool], bytearray]

#: The backends ``freeze(backend=)`` and ``load_snapshot(backend=)`` accept.
BACKENDS = ("list", "shm")


class ListBackend:
    """Plain Python lists of pre-boxed elements (every heap snapshot)."""

    name = "list"
    #: Whether ``FrozenRoad.apply`` may mutate arrays this backend built.
    #: Every live backend is patchable; the read-only mmap layout a
    #: snapshot file loads into (:func:`repro.core.serialize.load_snapshot`)
    #: is the one exception.
    patchable = True

    def int_array(self, values: Iterable[int]) -> IntVector:
        """Materialise an integer CSR array from staged values."""
        return list(values)

    def float_array(self, values: Iterable[float]) -> FloatVector:
        """Materialise a float CSR array from staged values."""
        return list(values)

    def int_values(self, values: Sequence[int]) -> Sequence[int]:
        """Values in the form ``int_array[a:b] = ...`` accepts."""
        return values

    def float_values(self, values: Sequence[float]) -> Sequence[float]:
        """Values in the form ``float_array[a:b] = ...`` accepts."""
        return values

    def bool_mask(self, flags: Iterable[bool]) -> BoolMask:
        """A per-Rnet predicate mask (indexed by compiled slot)."""
        return list(flags)

    def view(self, arr: Any) -> Any:
        """The object query loops should index (identity for lists)."""
        return arr

    def resident_bytes(self, arr: Sequence[object]) -> int:
        """Resident heap bytes of one array, boxes included.

        Counts the container plus one box per slot.  Interned small ints
        and ints shared via the compiled index dict make this an upper
        bound on steady-state heap growth, but it is the honest per-slot
        cost model: every slot pins a pointer and keeps a box alive.
        """
        return sys.getsizeof(arr) + sum(sys.getsizeof(x) for x in arr)


class TypedBufferBackend(ListBackend):
    """Stdlib typed buffers: the base of the ``shm`` and ``mmap`` layouts.

    ``array('q')``/``array('d')`` CSR arrays and bytearray predicate
    masks, read through memoryviews in the query loops.  No name selects
    this class: a heap snapshot is a ``list`` one, and the subclasses set
    their own ``name``.
    """

    def int_array(self, values: Iterable[int]) -> IntVector:
        return array("q", values)

    def float_array(self, values: Iterable[float]) -> FloatVector:
        return array("d", values)

    def int_values(self, values: Sequence[int]) -> "array[int]":
        # typed slice assignment only accepts a same-typecode buffer.
        return array("q", values)

    def float_values(self, values: Sequence[float]) -> "array[float]":
        return array("d", values)

    def bool_mask(self, flags: Iterable[bool]) -> BoolMask:
        return bytearray(1 if flag else 0 for flag in flags)

    def view(self, arr: Any) -> Any:
        """A memoryview for the query hot loop.

        Indexing a memoryview of a typed buffer is measurably cheaper
        than indexing the buffer itself.  FrozenRoad caches views per
        snapshot and releases them (``_drop_views``) before any patch.
        """
        return memoryview(arr)

    def resident_bytes(self, arr: Sequence[object]) -> int:
        """Resident bytes: the buffer is inline, so getsizeof is exact."""
        return sys.getsizeof(arr)


class ShmBackend(TypedBufferBackend):
    """Typed buffers in anonymous shared-memory segments.

    8 B/slot CSR arrays, each a :class:`~repro.core.shm_arrays.ShmVector`
    whose bytes live in an ``os.memfd_create`` segment.  One process —
    the primary — owns the segments and applies patches; any number of
    worker processes attach the same segments by descriptor
    (:meth:`repro.core.frozen.FrozenRoad.shm_manifest` +
    :meth:`~repro.core.frozen.FrozenRoad.from_manifest`) and serve
    queries zero-copy while the primary's slice writes land in place.

    Predicate mask caches deliberately stay process-local bytearrays:
    masks are never in the manifest — each attacher recompiles its own
    lazily — so a segment per cached predicate would buy no sharing.

    Query loops read through the vectors' cached payload memoryviews.
    Snapshots built on this backend should be released deterministically
    (``FrozenRoad.close()``); a GC finalizer backstop covers the rest.
    """

    name = "shm"

    def int_array(self, values: Iterable[int]) -> IntVector:
        return ShmVector("q", values)

    def float_array(self, values: Iterable[float]) -> FloatVector:
        return ShmVector("d", values)

    def view(self, arr: Any) -> Any:
        """The vector's cached payload memoryview."""
        if isinstance(arr, ShmVector):
            return arr.view()
        return memoryview(arr)

    def resident_bytes(self, arr: Sequence[object]) -> int:
        """Mapped segment size (header + capacity slack) for shm vectors."""
        if isinstance(arr, ShmVector):
            return arr.segment_bytes
        return sys.getsizeof(arr)


def get_backend(name: str) -> ListBackend:
    """Resolve a backend name to a backend instance.

    Case-insensitive.  Raises ``ValueError`` for names outside
    :data:`BACKENDS` and ``OSError`` when ``"shm"`` is requested on a
    host without anonymous shared memory.
    """
    name = name.lower()
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    if name == "list":
        return ListBackend()
    if not shared_memory_available():
        raise OSError(
            "FrozenRoad backend 'shm' requires anonymous shared memory "
            "(os.memfd_create), which this host does not provide; process "
            "replicas cannot run here"
        )
    return ShmBackend()


def resolve_backend(
    backend: Optional[Union[str, ListBackend]] = None,
) -> ListBackend:
    """Normalise a ``backend=`` argument to a backend instance.

    ``None`` is ``"list"``; strings are looked up via :func:`get_backend`;
    backend instances pass through (snapshot patch paths re-use the
    instance they were compiled with, and a snapshot file's mmap view
    brings its own).
    """
    if backend is None:
        return ListBackend()
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


def installed_backends() -> Tuple[str, ...]:
    """The backends constructible in this environment, in BACKENDS order.

    ``"list"`` is stdlib-only and always present; ``"shm"`` appears when
    the host provides anonymous shared memory (``memfd_create``).
    """
    return tuple(
        name
        for name in BACKENDS
        if name != "shm" or shared_memory_available()
    )
