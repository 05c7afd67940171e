"""Shared-memory typed vectors: the storage layer of the ``"shm"`` backend.

A :class:`ShmVector` is one compiled CSR array whose bytes live in an
anonymous memory file (``os.memfd_create``), so any number of worker
*processes* map the same snapshot zero-copy while the primary keeps
patching it in place.  The layout per segment::

    [ length : int64 ][ capacity : int64 ][ payload : capacity * itemsize ]

* ``length`` lives **inside the segment** — a size-changing object splice
  on the primary is immediately visible to every attached process (their
  ``len()`` re-reads the header), with no side-channel required for the
  common resize case.
* ``capacity`` leaves slack beyond ``length`` so object-churn splices
  usually move bytes within the segment.  When a splice outgrows the
  slack the owner grows the segment in place (``ftruncate`` plus a
  re-map): the file stays the same, so an attached process only
  re-maps it (:meth:`ShmVector.remap`), which the process pool does when
  the sync payload after the patch reaches the worker.

A segment has no name.  Processes share it by **descriptor**: a worker
inherits the descriptor or receives it over a Unix socket
(``socket.send_fds``) and maps it with :meth:`ShmVector.attach`.  The
kernel frees the memory when its last descriptor and mapping close, so
a crash — even a SIGKILL of the whole process group — leaves nothing
behind, and no resource tracker has to clean up after one.

The vector speaks the same protocol the other
:mod:`repro.core.frozen_backends` arrays do: ``len``/indexing,
slice-assignment writes (including resizing splices, byte-moved with a
single tail copy), and a cached :meth:`view` memoryview for the query hot
loops.

Lifecycle: every vector, owner or attacher, holds its own descriptor and
mapping and releases both in :meth:`ShmVector.close`.  A
``weakref.finalize`` backstop does the same for vectors dropped without
an explicit close (tests, a snapshot garbage-collected unclosed).
"""

from __future__ import annotations

import mmap
import os
import weakref
from array import array
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Union

#: Bytes before the payload: two little-endian int64s (length, capacity).
HEADER_BYTES = 16

#: Supported element typecodes -> itemsize. ``"q"`` carries the integer
#: CSR arrays, ``"d"`` the weight/delta arrays, ``"b"`` byte flags.
ITEMSIZES = {"q": 8, "d": 8, "b": 1}

#: Minimum capacity slack (elements) left beyond the initial length, so
#: small vectors survive a few object insertions without growing.
MIN_SLACK = 8

#: What slice assignment accepts as a replacement-values source.
VectorValues = Union["ShmVector", Sequence[Any], memoryview, bytes]


class ShmSegmentError(Exception):
    """Raised on shm-vector misuse (bad typecode, non-owner resize)."""


def _unmap(held: List[Any]) -> None:
    """Release a vector's ``[head, live, buf]`` views, then its mapping."""
    for view in held[:-1]:
        view.release()
    held[-1].close()


def _release(fd: int, held: List[Any]) -> None:
    """Unmap and close the descriptor (``close()`` and the finalizer).

    ``held`` is the vector's ``[head, live, buf, mapping]``, updated in
    place on every re-map so this finalizer always sees the current one.
    """
    _unmap(held)
    os.close(fd)


class ShmVector(Sequence[Any]):
    """One typed array in an anonymous shared-memory segment.

    Construct as an owner (``ShmVector("q", values)``) or attach to an
    owner's segment by descriptor (``ShmVector.attach(fd, "q")``).
    Owners allocate, resize and grow the segment; attachers map it
    read-mostly.  Each only ever releases its own descriptor and mapping.
    """

    _fd: int
    _typecode: str
    _itemsize: int
    _owner: bool
    _buf: memoryview
    _head: memoryview
    _live: memoryview
    _held: List[Any]
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
        fd = os.memfd_create(f"repro-{typecode}")
        try:
            os.ftruncate(fd, HEADER_BYTES + cap * itemsize)
        except BaseException:
            os.close(fd)
            raise
        self._adopt(fd, typecode, owner=True)
        self._head[0] = length
        self._head[1] = cap
        if length:
            self._buf[
                HEADER_BYTES : HEADER_BYTES + length * itemsize
            ] = staged.tobytes()
        self._refresh_live()

    @classmethod
    def attach(cls, fd: int, typecode: str) -> "ShmVector":
        """Map the segment behind ``fd``; the caller never resizes it.

        The vector keeps a duplicate of ``fd``: the caller still owns
        (and closes) the descriptor it passed.
        """
        cls._checked_itemsize(typecode)
        vector = cls.__new__(cls)
        vector._adopt(os.dup(fd), typecode, owner=False)
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

    def _adopt(self, fd: int, typecode: str, *, owner: bool) -> None:
        """Bind this vector to the descriptor ``fd``, which it now owns."""
        self._fd = fd
        self._typecode = typecode
        self._itemsize = ITEMSIZES[typecode]
        self._owner = owner
        self._held = []
        try:
            self._map()
        except BaseException:
            os.close(fd)
            raise
        self._finalizer = weakref.finalize(self, _release, fd, self._held)

    def _map(self) -> None:
        """Map the whole segment; rebuild the header and payload views."""
        mapping = mmap.mmap(self._fd, os.fstat(self._fd).st_size)
        self._buf = memoryview(mapping)
        self._head = self._buf[:HEADER_BYTES].cast("q")
        self._live = self._buf[HEADER_BYTES:HEADER_BYTES].cast(self._typecode)
        self._held[:] = [self._head, self._live, self._buf, mapping]

    def _refresh_live(self) -> None:
        """Rebuild the payload view to match the header's current length."""
        self._live.release()
        stop = HEADER_BYTES + int(self._head[0]) * self._itemsize
        self._live = self._buf[HEADER_BYTES:stop].cast(self._typecode)
        self._held[1] = self._live

    def remap(self) -> None:
        """Re-map the segment if its owner has grown it since; else no-op.

        Releases every view this vector handed out, so call it only
        between queries (the process pool's sync step does).
        """
        if os.fstat(self._fd).st_size != len(self._buf):
            _unmap(self._held)
            self._map()
            self._refresh_live()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def typecode(self) -> str:
        """The element typecode (``"q"``/``"d"``/``"b"``)."""
        return self._typecode

    @property
    def descriptor(self) -> int:
        """This process's descriptor of the segment (fixed for life)."""
        return self._fd

    @property
    def segment_bytes(self) -> int:
        """Mapped size of the backing segment (header + capacity slack)."""
        return len(self._buf)

    @property
    def capacity(self) -> int:
        """Elements the segment can hold before the owner must grow it."""
        return int(self._head[1])

    def __len__(self) -> int:
        return int(self._head[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmVector({self._typecode!r}, len={len(self)}, "
            f"cap={self.capacity}, fd={self._fd})"
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
        owner grows the segment in place first.
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
                f"(descriptor {self._fd})"
            )
        length = len(self)
        new_length = length - old + fresh
        if new_length > self.capacity:
            self._grow(new_length)
        itemsize = self._itemsize
        buf = self._buf
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
        """Grow the segment in place (owner only): same file, larger map."""
        cap = self.capacity
        new_cap = max(needed, cap + max(cap // 2, MIN_SLACK))
        os.ftruncate(self._fd, HEADER_BYTES + new_cap * self._itemsize)
        self.remap()
        self._head[1] = new_cap

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's views, mapping and descriptor.

        Idempotent.  The kernel frees the segment once every process
        holding it has closed (or exited).
        """
        self._finalizer()


_AVAILABLE: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether this host can create anonymous shared-memory segments.

    Probed once per process by round-tripping a tiny segment; platforms
    without ``os.memfd_create`` (anything but Linux) make the ``"shm"``
    backend (and the process replica pool) unavailable rather than
    crashing mid-freeze.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = ShmVector("q", (0,))
            probe.close()
        except (OSError, AttributeError):
            _AVAILABLE = False
        else:
            _AVAILABLE = True
    return _AVAILABLE
