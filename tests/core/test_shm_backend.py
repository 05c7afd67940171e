"""ShmVector and the ``"shm"`` backend: segments, splices, lifecycle.

The storage contract the process replica pool builds on: length lives in
the shared header (attachers observe owner splices with no side
channel), splices within the capacity slack keep the mapping, outgrowing
the slack grows the same segment in place (attachers re-map it, no
reload), and teardown is each holder closing its own descriptor and
mapping — the segment has no name to unlink.
"""

import os
from pathlib import Path

import pytest

from repro.core.frozen_backends import get_backend, shared_memory_available
from repro.core.shm_arrays import (
    HEADER_BYTES,
    ShmSegmentError,
    ShmVector,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="host has no anonymous shared memory (memfd_create)",
)


@pytest.fixture
def vector():
    vec = ShmVector("q", range(10))
    yield vec
    vec.close()


class TestVectorBasics:
    def test_sequence_protocol(self, vector):
        assert len(vector) == 10
        assert vector[3] == 3
        assert vector[2:5] == [2, 3, 4]
        assert list(vector) == list(range(10))
        assert vector.tolist() == list(range(10))
        assert vector.tobytes() == b"".join(
            i.to_bytes(8, "little") for i in range(10)
        )

    def test_segment_layout(self, vector):
        assert vector.capacity >= len(vector)
        assert vector.segment_bytes == HEADER_BYTES + vector.capacity * 8

    def test_unknown_typecode_rejected(self):
        with pytest.raises(ShmSegmentError, match="typecodes"):
            ShmVector("f", (0.0,))

    def test_float_and_mask_typecodes(self):
        for typecode, values in (("d", [0.5, 1.5]), ("b", [0, 1, 1])):
            vec = ShmVector(typecode, values)
            try:
                assert vec.tolist() == values
            finally:
                vec.close()


class TestAttachers:
    def test_attach_sees_owner_writes(self, vector):
        reader = ShmVector.attach(vector.descriptor, "q")
        try:
            vector[4] = 99
            assert reader[4] == 99
        finally:
            reader.close()

    def test_attach_sees_resizing_splice_via_header(self, vector):
        reader = ShmVector.attach(vector.descriptor, "q")
        try:
            # In-slack resize: same segment, new length, no side channel.
            vector[2:2] = [77, 78]
            assert len(reader) == 12
            assert reader.tolist() == vector.tolist()
        finally:
            reader.close()

    def test_attacher_may_not_resize(self, vector):
        reader = ShmVector.attach(vector.descriptor, "q")
        try:
            with pytest.raises(ShmSegmentError, match="owning process"):
                reader[0:0] = [1, 2, 3]
        finally:
            reader.close()

    def test_attacher_close_keeps_segment_alive(self, vector):
        reader = ShmVector.attach(vector.descriptor, "q")
        reader.close()
        # The attacher closed its own duplicate, not the owner's
        # descriptor: the segment is still attachable.
        again = ShmVector.attach(vector.descriptor, "q")
        try:
            assert again.tolist() == vector.tolist()
        finally:
            again.close()


class TestSplices:
    def test_same_size_rewrite_keeps_mapping_and_capacity(self, vector):
        size, cap = vector.segment_bytes, vector.capacity
        vector[0:10] = list(range(100, 110))
        assert vector.tolist() == list(range(100, 110))
        assert (vector.segment_bytes, vector.capacity) == (size, cap)

    def test_in_slack_resize_keeps_mapping(self, vector):
        reader = ShmVector.attach(vector.descriptor, "q")
        try:
            size = vector.segment_bytes
            vector[5:5] = [50]
            vector[0:2] = []
            assert vector.tolist() == [2, 3, 4, 50, 5, 6, 7, 8, 9]
            assert vector.segment_bytes == size
            # The attacher needs no re-map: the header carries the length.
            assert reader.tolist() == vector.tolist()
        finally:
            reader.close()

    def test_outgrowing_slack_grows_in_place(self, vector):
        reader = ShmVector.attach(vector.descriptor, "q")
        try:
            fd, cap = vector.descriptor, vector.capacity
            inode = os.fstat(fd).st_ino
            vector[10:10] = list(range(10, 10 + cap))
            # Same descriptor, same file: only its size and the map grew.
            assert vector.descriptor == fd
            assert os.fstat(fd).st_ino == inode
            assert vector.capacity > cap
            assert vector.segment_bytes == HEADER_BYTES + vector.capacity * 8
            assert vector.tolist() == list(range(10 + cap))
            # The attacher still maps the old size until it re-maps (the
            # pool's sync step); then it reads the whole grown payload.
            assert reader.segment_bytes < vector.segment_bytes
            reader.remap()
            assert reader.segment_bytes == vector.segment_bytes
            assert reader.tolist() == vector.tolist()
            reader.remap()  # nothing grew since: a no-op
            assert reader.tolist() == vector.tolist()
        finally:
            reader.close()

    def test_step_slices_rejected(self, vector):
        with pytest.raises(ShmSegmentError, match="step-1"):
            vector[0:4:2] = [1, 2]

    def test_view_auto_heals_after_splice(self, vector):
        stale = vector.view()
        vector[0:0] = [42]
        # The pre-splice export is released, not left dangling: a holder
        # cannot read stale data, it gets a hard error.
        with pytest.raises(ValueError, match="released"):
            stale[0]
        assert len(vector.view()) == 11
        assert vector.view()[0] == 42


class TestLifecycle:
    def test_segment_lives_until_its_last_holder_closes(self):
        """No holder unlinks anything: the owner's close is idempotent
        and leaves an attacher reading, and the segment goes with the
        last descriptor."""
        owner = ShmVector("q", (1, 2, 3))
        reader = ShmVector.attach(owner.descriptor, "q")
        owner.close()
        owner.close()  # idempotent
        assert reader.tolist() == [1, 2, 3]
        reader.close()

    def test_close_releases_the_mapping_in_every_process(self):
        """Each close drops its own mapping and descriptor at once, not
        at garbage collection."""
        fds = Path("/proc/self/fd")
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("needs /proc/self/maps to count mappings")
        owner = ShmVector("q", (1, 2, 3))
        inode = os.fstat(owner.descriptor).st_ino

        def mapped():
            return sum(
                line.split()[4] == str(inode) and "/memfd:" in line
                for line in maps.read_text().splitlines()
            )

        def open_fds():
            count = 0
            for fd in fds.iterdir():
                try:
                    if os.readlink(fd).startswith("/memfd:"):
                        count += fd.stat().st_ino == inode
                except OSError:  # the listing's own descriptor
                    continue
            return count

        held = open_fds()  # the vector's own, plus any the mmap keeps
        assert (mapped(), held > 0) == (1, True)
        reader = ShmVector.attach(owner.descriptor, "q")
        assert (mapped(), open_fds()) == (2, 2 * held)
        reader.close()
        assert (mapped(), open_fds()) == (1, held)
        owner.close()
        assert (mapped(), open_fds()) == (0, 0)

    def test_backend_arrays_are_shm_vectors(self):
        backend = get_backend("shm")
        ints = backend.int_array([3, 1, 2])
        floats = backend.float_array([0.25, 0.75])
        try:
            assert isinstance(ints, ShmVector)
            assert isinstance(floats, ShmVector)
            assert ints.tolist() == [3, 1, 2]
            assert floats.tolist() == [0.25, 0.75]
        finally:
            ints.close()
            floats.close()
