"""Pluggable array backends for the :class:`~repro.core.frozen.FrozenRoad`.

The compiled CSR arrays (entry offsets, shortcut/edge targets and weights,
object ids and deltas) have one logical layout but three physical
representations, selected per snapshot:

* ``"list"`` (default) — plain Python lists of pre-boxed ints/floats.
  Hot-loop indexing returns existing objects without boxing a fresh
  int/float per access, so this is the fastest pure-Python query path,
  at ~4x the memory the data needs (8 B pointer + boxed payload per slot).
* ``"compact"`` — stdlib ``array('q')`` / ``array('d')`` buffers plus
  ``bytearray`` predicate masks, read through memoryviews in the query
  loops.  8 B per slot, no boxed elements: ≥4x smaller resident arrays
  than ``"list"`` with near-identical query latency.
* ``"shm"`` — the ``compact`` layout stored in named
  ``multiprocessing.shared_memory`` segments
  (:class:`repro.core.shm_arrays.ShmVector`), so worker *processes*
  attach the same snapshot zero-copy and the primary's ``apply()`` patch
  writes land in every attached process at once.  Requires a host with
  POSIX shared memory (``/dev/shm``); see ``installed_backends``.

Every backend serves byte-identical answers — the equivalence probes
(:func:`repro.eval.metrics.snapshot_divergences`) hold across all of them
— and supports the incremental-freeze patch lifecycle: span rewrites are
slice assignments (``arr[a:b] = values``), which lists, stdlib arrays
and the shared-memory vectors all honour.  None of them needs numpy: the
optional extra serves the generators, placement and workload sampling
only (:mod:`repro._optional`).

Select a backend per call (``road.freeze(backend="compact")``), per engine
(``ROADEngine(..., backend=...)``), or globally via ``REPRO_BACKEND`` /
the eval CLI's ``--backend``.
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.shm_arrays import ShmVector, shared_memory_available

#: One compiled integer CSR array, whichever backend materialised it.
IntVector = Union[List[int], "array[int]", ShmVector]
#: One compiled float CSR array.
FloatVector = Union[List[float], "array[float]", ShmVector]
#: One per-slot predicate mask.
BoolMask = Union[List[bool], bytearray, ShmVector]

#: Valid FrozenRoad array backends, in documentation order.
BACKENDS = ("list", "compact", "shm")

#: Environment variable overriding the default backend.
BACKEND_ENV = "REPRO_BACKEND"


class ListBackend:
    """Plain Python lists of pre-boxed elements (the fast default)."""

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

    def mask_view(self, mask: Any) -> Any:
        """The object the hot loop indexes for one predicate mask.

        Lists and bytearrays index fast as-is, so every backend keeps the
        identity mapping — masks are process-local on all of them,
        including ``shm`` (see :class:`ShmBackend`).
        """
        return mask

    def resident_bytes(self, arr: Sequence[object]) -> int:
        """Resident heap bytes of one array, boxes included.

        Counts the container plus one box per slot.  Interned small ints
        and ints shared via the compiled index dict make this an upper
        bound on steady-state heap growth, but it is the honest per-slot
        cost model: every slot pins a pointer and keeps a box alive.
        """
        return sys.getsizeof(arr) + sum(sys.getsizeof(x) for x in arr)


class CompactBackend(ListBackend):
    """Stdlib typed buffers: ``array('q')``/``array('d')`` + bytearrays."""

    name = "compact"

    def int_array(self, values: Iterable[int]) -> IntVector:
        return array("q", values)

    def float_array(self, values: Iterable[float]) -> FloatVector:
        return array("d", values)

    def int_values(self, values: Sequence[int]) -> "array[int]":
        # array slice assignment only accepts a same-typecode array.
        return array("q", values)

    def float_values(self, values: Sequence[float]) -> "array[float]":
        return array("d", values)

    def bool_mask(self, flags: Iterable[bool]) -> BoolMask:
        return bytearray(1 if flag else 0 for flag in flags)

    def view(self, arr: Any) -> Any:
        """A memoryview for the query hot loop.

        Indexing a memoryview of a typed array is measurably cheaper than
        indexing the array itself.  Note the view exports the array's
        buffer: FrozenRoad caches views per snapshot and MUST release
        them (``_drop_views``) before any patch — a live export makes a
        resizing splice raise ``BufferError``.
        """
        return memoryview(arr)

    def resident_bytes(self, arr: Sequence[object]) -> int:
        """Resident bytes: the buffer is inline, so getsizeof is exact."""
        return sys.getsizeof(arr)


class ShmBackend(CompactBackend):
    """The compact layout in named shared-memory segments.

    Same 8 B/slot CSR arrays and bytes-per-slot masks as ``compact``, but
    each array is a :class:`~repro.core.shm_arrays.ShmVector` whose bytes
    live in a ``multiprocessing.shared_memory`` segment.  One process —
    the primary — owns the segments and applies patches; any number of
    worker processes attach the same segments by name
    (:meth:`repro.core.frozen.FrozenRoad.shm_manifest` +
    :meth:`~repro.core.frozen.FrozenRoad.from_parts`) and serve queries
    zero-copy while the primary's slice writes land in place.

    Predicate mask caches deliberately stay process-local bytearrays
    (inherited from ``compact``): masks are never in the manifest — each
    attacher recompiles its own lazily — so a named segment per cached
    predicate would buy no sharing while leaking a ``/dev/shm`` entry
    whenever a worker dies without running its ``close()`` (e.g.
    SIGKILL), until the resource tracker reaps it at interpreter exit.

    Query loops read through the vectors' cached payload memoryviews, so
    the scalar hot path costs the same as ``compact``.  Snapshots built
    on this backend should be released deterministically
    (``FrozenRoad.close()``); a GC finalizer backstop covers the rest.
    """

    name = "shm"

    def int_array(self, values: Iterable[int]) -> IntVector:
        return ShmVector("q", values)

    def float_array(self, values: Iterable[float]) -> FloatVector:
        return ShmVector("d", values)

    def view(self, arr: Any) -> Any:
        """The vector's cached payload memoryview (see CompactBackend)."""
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

    Raises ``ValueError`` for unknown names and ``OSError`` when
    ``"shm"`` is requested on a host without POSIX shared memory.
    Case-insensitive, like every other backend config surface.
    """
    name = validate_backend_name(name)
    if name == "list":
        return ListBackend()
    if name == "compact":
        return CompactBackend()
    if name == "shm":
        if not shared_memory_available():
            raise OSError(
                "FrozenRoad backend 'shm' requires POSIX shared memory "
                "(/dev/shm), which this host does not provide; use "
                "backend='compact' for the same layout in process-private "
                "buffers"
            )
        return ShmBackend()
    raise AssertionError(f"unhandled validated backend {name!r}")


def validate_backend_name(name: str, *, source: str = "backend") -> str:
    """Normalise and check a backend name; ``source`` labels the error.

    The single validation used by :func:`default_backend` and every
    config surface that accepts a backend string (eval runner/CLI), so
    adding a backend or rewording the error happens in one place.
    """
    name = name.lower()
    if name not in BACKENDS:
        raise ValueError(
            f"{source} must be one of {BACKENDS}, got {name!r}"
        )
    return name


def default_backend() -> str:
    """The session-wide backend: ``REPRO_BACKEND`` or ``"list"``."""
    return validate_backend_name(
        os.environ.get(BACKEND_ENV, "list"), source=BACKEND_ENV
    )


def resolve_backend(
    backend: Optional[Union[str, ListBackend]] = None,
) -> ListBackend:
    """Normalise a ``backend=`` argument to a backend instance.

    ``None`` defers to :func:`default_backend`; strings are looked up via
    :func:`get_backend`; backend instances pass through (snapshot patch
    paths re-use the instance they were compiled with).
    """
    if backend is None:
        backend = default_backend()
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


def installed_backends() -> Tuple[str, ...]:
    """The backends constructible in this environment, in BACKENDS order.

    ``"list"`` and ``"compact"`` are stdlib-only and always present;
    ``"shm"`` appears when the host provides POSIX shared memory
    (``/dev/shm``).
    """
    return tuple(
        name
        for name in BACKENDS
        if name != "shm" or shared_memory_available()
    )
