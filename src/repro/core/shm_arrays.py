"""Shared-memory typed vectors: the storage layer of the ``"shm"`` backend.

A :class:`ShmVector` is one compiled CSR array whose bytes live in a
named ``multiprocessing.shared_memory`` segment, so any number of worker
*processes* can attach the same snapshot zero-copy while the primary
keeps patching it in place.  The layout per segment::

    [ length : int64 ][ capacity : int64 ][ payload : capacity * itemsize ]

* ``length`` lives **inside the segment** — a size-changing object splice
  on the primary is immediately visible to every attached process (their
  ``len()`` re-reads the header), with no side-channel required for the
  common resize case.
* ``capacity`` leaves slack beyond ``length`` so object-churn splices
  usually move bytes within the segment instead of reallocating.  When a
  splice outgrows the slack the vector transparently re-homes into a
  larger segment (owner only) — the segment *name* changes, which the
  process pool detects and answers with a worker reload.

The vector speaks the same protocol the other
:mod:`repro.core.frozen_backends` arrays do: ``len``/indexing,
slice-assignment writes (including resizing splices, byte-moved with a
single tail copy), and a cached :meth:`view` memoryview for the query hot
loops.

Lifecycle: this module is the only one that creates a ``SharedMemory``
segment.  Every segment is ``close()``-d by each attached process and
``unlink()``-ed exactly once, by the owner, from :meth:`ShmVector.close`.
A ``weakref.finalize`` backstop covers vectors dropped without an
explicit close (tests, a snapshot garbage-collected unclosed) so
abandoned segments do not outlive the process.
CPython < 3.13 registers *attached* segments with the resource tracker as
if they were owned — see :func:`attach_segment` for why that is benign in
the one-tracker-per-process-tree world the serving pool runs in.
"""

from __future__ import annotations

import weakref
from array import array
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Union

#: Bytes before the payload: two little-endian int64s (length, capacity).
HEADER_BYTES = 16

#: Supported element typecodes -> itemsize. ``"q"`` carries the integer
#: CSR arrays, ``"d"`` the weight/delta arrays, ``"b"`` byte flags.
ITEMSIZES = {"q": 8, "d": 8, "b": 1}

#: Minimum capacity slack (elements) left beyond the initial length, so
#: small vectors survive a few object insertions without re-homing.
MIN_SLACK = 8

#: What slice assignment accepts as a replacement-values source.
VectorValues = Union["ShmVector", Sequence[Any], memoryview, bytes]


class ShmSegmentError(Exception):
    """Raised on shm-vector misuse (bad typecode, non-owner resize)."""


def attach_segment(name: str) -> SharedMemory:
    """Attach an existing segment by name, without adopting its lifetime.

    CPython 3.13 grew ``track=False`` so an attachment is not registered
    with the resource tracker (attachers must never trigger its cleanup).
    Older interpreters register every attach exactly as a *create* — but
    the tracker a ``multiprocessing`` child inherits is the parent's, and
    its name cache is a set, so the duplicate registration dedups into
    the owner's own entry and the owner's eventual ``unlink()``
    unregisters it exactly once.  (Deliberately no ``unregister`` call
    here: with a shared tracker it would cancel the *owner's*
    registration, dropping crash-leak protection for a live segment.)
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track= parameter
        return SharedMemory(name=name)


def _release_segment(
    shm: SharedMemory, exports: List[memoryview], owner: bool
) -> None:
    """Finalizer backstop: drop views, close, unlink if owned.

    Runs when a vector is garbage-collected without an explicit
    :meth:`ShmVector.close` (test teardown, evicted cache entries).
    Best-effort: a still-exported view (a reader mid-query) leaves the
    segment to the OS-level cleanup rather than crashing the finalizer.
    """
    try:
        for view in exports:
            view.release()
        shm.close()
        if owner:
            shm.unlink()
    except (BufferError, FileNotFoundError, OSError):  # pragma: no cover
        pass


class ShmVector(Sequence[Any]):
    """One typed array in a named shared-memory segment.

    Construct as an owner (``ShmVector("q", values)``) or attach to an
    owner's segment from another process (``ShmVector.attach(name, "q")``).
    Owners allocate, resize and — exactly once, in :meth:`close` — unlink
    the segment; attachers map it read-mostly and only ever ``close()``.
    """

    _shm: SharedMemory
    _typecode: str
    _itemsize: int
    _owner: bool
    _closed: bool
    _head: memoryview
    _live: memoryview
    _exports: List[memoryview]
    _finalizer: "weakref.finalize[Any, Any]"

    def __init__(
        self,
        typecode: str,
        values: Iterable[Any] = (),
        *,
        capacity: Optional[int] = None,
    ) -> None:
        staged = array(typecode, values)
        length = len(staged)
        floor = length + max(length // 4, MIN_SLACK)
        cap = max(floor, capacity if capacity is not None else 0)
        itemsize = self._checked_itemsize(typecode)
        shm = SharedMemory(create=True, size=HEADER_BYTES + cap * itemsize)
        self._adopt(shm, typecode, owner=True)
        self._head[0] = length
        self._head[1] = cap
        if length:
            self._shm.buf[
                HEADER_BYTES : HEADER_BYTES + length * itemsize
            ] = staged.tobytes()
        self._refresh_live()

    @classmethod
    def attach(cls, name: str, typecode: str) -> "ShmVector":
        """Map another process's segment; the caller never resizes it."""
        cls._checked_itemsize(typecode)
        vector = cls.__new__(cls)
        vector._adopt(attach_segment(name), typecode, owner=False)
        vector._refresh_live()
        return vector

    @staticmethod
    def _checked_itemsize(typecode: str) -> int:
        itemsize = ITEMSIZES.get(typecode)
        if itemsize is None:
            raise ShmSegmentError(
                f"shm vectors carry typecodes {sorted(ITEMSIZES)}, "
                f"got {typecode!r}"
            )
        return itemsize

    def _adopt(self, shm: SharedMemory, typecode: str, *, owner: bool) -> None:
        """Bind this vector to ``shm`` (fresh construction or re-home)."""
        self._shm = shm
        self._typecode = typecode
        self._itemsize = ITEMSIZES[typecode]
        self._owner = owner
        self._closed = False
        self._head = shm.buf[:HEADER_BYTES].cast("q")
        self._live = shm.buf[HEADER_BYTES:HEADER_BYTES].cast(typecode)
        self._exports = [self._head, self._live]
        self._finalizer = weakref.finalize(
            self, _release_segment, shm, self._exports, owner
        )

    def _refresh_live(self) -> None:
        """Rebuild the payload view to match the header's current length."""
        self._live.release()
        stop = HEADER_BYTES + int(self._head[0]) * self._itemsize
        self._live = self._shm.buf[HEADER_BYTES:stop].cast(self._typecode)
        self._exports[1] = self._live

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def typecode(self) -> str:
        """The element typecode (``"q"``/``"d"``/``"b"``)."""
        return self._typecode

    @property
    def segment_name(self) -> str:
        """The shm segment's attachable name (changes if the owner grows)."""
        return self._shm.name

    @property
    def segment_bytes(self) -> int:
        """Mapped size of the backing segment (header + capacity slack)."""
        return self._shm.size

    @property
    def capacity(self) -> int:
        """Elements the segment can hold before the owner must re-home."""
        return int(self._head[1])

    def __len__(self) -> int:
        return int(self._head[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmVector({self._typecode!r}, len={len(self)}, "
            f"cap={self.capacity}, segment={self.segment_name!r})"
        )

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------
    def view(self) -> memoryview:
        """The memoryview the query hot loops index.

        Returns the vector's own cached payload view, re-derived when a
        splice (possibly by the owning process, observed through the
        shared header) changed the length.  Plain value writes by the
        owner need no refresh: readers index the same buffer.
        """
        if len(self._live) != self._head[0]:
            self._refresh_live()
        return self._live

    def __getitem__(self, index: Any) -> Any:
        view = self.view()
        if isinstance(index, slice):
            return view[index].tolist()
        return view[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.view())

    def tolist(self) -> List[Any]:
        """The payload as a plain list (tests / serialisation staging)."""
        return self.view().tolist()

    def tobytes(self) -> bytes:
        """The live payload bytes (serialisation)."""
        return bytes(self.view())

    def __setitem__(self, index: Any, value: Any) -> None:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ShmSegmentError("shm vectors only splice step-1 slices")
            self._splice(start, stop, value)
            return
        self.view()[index] = value

    def _coerce(self, values: VectorValues) -> Any:
        """Values as a same-format buffer memoryview assignment accepts."""
        if isinstance(values, ShmVector):
            return values.view()
        if isinstance(values, array) and values.typecode == self._typecode:
            return values
        if isinstance(values, memoryview) and values.format == self._typecode:
            return values
        return array(self._typecode, values)

    def _splice(self, start: int, stop: int, values: VectorValues) -> None:
        """Replace ``[start:stop)`` with ``values``, resizing if needed.

        Same-size rewrites are a single buffer copy (the patch planner's
        weight updates).  Resizes copy the tail once as bytes, shift it,
        and update the shared header — O(moved bytes), no reallocation
        while the new length fits the capacity slack; beyond that the
        owner re-homes into a larger segment (the name changes, which the
        serving pool turns into a worker reload).
        """
        staged = self._coerce(values)
        fresh = len(staged)
        old = stop - start
        if fresh == old:
            if fresh:
                self.view()[start:stop] = staged
            return
        if not self._owner:
            raise ShmSegmentError(
                "only the owning process may resize a shm vector "
                f"(segment {self.segment_name!r})"
            )
        length = len(self)
        new_length = length - old + fresh
        if new_length > self.capacity:
            self._grow(new_length)
        itemsize = self._itemsize
        buf = self._shm.buf
        if stop < length:
            tail = bytes(
                buf[
                    HEADER_BYTES + stop * itemsize :
                    HEADER_BYTES + length * itemsize
                ]
            )
            shifted = HEADER_BYTES + (start + fresh) * itemsize
            buf[shifted : shifted + len(tail)] = tail
        self._head[0] = new_length
        self._refresh_live()
        if fresh:
            self._live[start : start + fresh] = staged

    def _grow(self, needed: int) -> None:
        """Re-home into a larger segment (owner only); the name changes."""
        cap = self.capacity
        new_cap = max(needed, cap + max(cap // 2, MIN_SLACK))
        length = len(self)
        payload = bytes(
            self._shm.buf[
                HEADER_BYTES : HEADER_BYTES + length * self._itemsize
            ]
        )
        typecode = self._typecode
        fresh = SharedMemory(
            create=True, size=HEADER_BYTES + new_cap * self._itemsize
        )
        # Retire the old segment through the single close/unlink path,
        # then rebind to the fresh one.
        self.close()
        self._adopt(fresh, typecode, owner=True)
        self._head[0] = length
        self._head[1] = new_cap
        if payload:
            self._shm.buf[HEADER_BYTES : HEADER_BYTES + len(payload)] = payload
        self._refresh_live()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks.

        Idempotent.  Each attached process must call this; the segment
        itself is destroyed exactly once, by the owner.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for view in self._exports:
            view.release()
        self._shm.close()
        if self._owner:
            self._shm.unlink()


_AVAILABLE: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether this host can create POSIX shared-memory segments.

    Probed once per process by round-tripping a tiny segment; sandboxes
    without ``/dev/shm`` make the ``"shm"`` backend (and the process
    replica pool) unavailable rather than crashing mid-freeze.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = ShmVector("q", (0,))
            probe.close()
        except (OSError, ValueError, ImportError):
            _AVAILABLE = False
        else:
            _AVAILABLE = True
    return _AVAILABLE
