"""ShmVector and the ``"shm"`` backend: segments, splices, lifecycle.

The storage contract the process replica pool builds on: length lives in
the shared header (attachers observe owner splices with no side
channel), in-place splices keep the segment name, outgrowing the
capacity slack re-homes to a *new* name (the pool's reload trigger), and
teardown is close-everywhere / unlink-exactly-once-by-the-owner.
"""

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
    reason="host has no POSIX shared memory (/dev/shm)",
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
        reader = ShmVector.attach(vector.segment_name, "q")
        try:
            vector[4] = 99
            assert reader[4] == 99
        finally:
            reader.close()

    def test_attach_sees_resizing_splice_via_header(self, vector):
        reader = ShmVector.attach(vector.segment_name, "q")
        try:
            # In-slack resize: same segment, new length, no side channel.
            vector[2:2] = [77, 78]
            assert len(reader) == 12
            assert reader.tolist() == vector.tolist()
        finally:
            reader.close()

    def test_attacher_may_not_resize(self, vector):
        reader = ShmVector.attach(vector.segment_name, "q")
        try:
            with pytest.raises(ShmSegmentError, match="owning process"):
                reader[0:0] = [1, 2, 3]
        finally:
            reader.close()

    def test_attacher_close_keeps_segment_alive(self, vector):
        reader = ShmVector.attach(vector.segment_name, "q")
        reader.close()
        # Only the owner unlinks: the segment is still attachable.
        again = ShmVector.attach(vector.segment_name, "q")
        try:
            assert again.tolist() == vector.tolist()
        finally:
            again.close()


class TestSplices:
    def test_same_size_rewrite_keeps_name_and_capacity(self, vector):
        name, cap = vector.segment_name, vector.capacity
        vector[0:10] = list(range(100, 110))
        assert vector.tolist() == list(range(100, 110))
        assert (vector.segment_name, vector.capacity) == (name, cap)

    def test_in_slack_resize_keeps_name(self, vector):
        name = vector.segment_name
        vector[5:5] = [50]
        vector[0:2] = []
        assert vector.tolist() == [2, 3, 4, 50, 5, 6, 7, 8, 9]
        assert vector.segment_name == name

    def test_outgrowing_slack_rehomes_to_new_name(self, vector):
        name = vector.segment_name
        vector[10:10] = list(range(10, 10 + vector.capacity))
        assert vector.segment_name != name
        assert vector.tolist() == list(range(10 + (vector.capacity)))[
            : len(vector)
        ]
        # The old segment was retired through the owner path: gone.
        with pytest.raises(FileNotFoundError):
            ShmVector.attach(name, "q")

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
    def test_owner_close_unlinks_exactly_once(self):
        vec = ShmVector("q", (1, 2, 3))
        name = vec.segment_name
        vec.close()
        vec.close()  # idempotent: the unlink does not run twice
        with pytest.raises(FileNotFoundError):
            ShmVector.attach(name, "q")

    def test_close_releases_the_mapping_in_every_process(self):
        """Each close drops its own process's mapping at once, not at
        garbage collection; the owner's close also unlinks the name."""
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("needs /proc/self/maps to count mappings")
        owner = ShmVector("q", (1, 2, 3))
        name = owner.segment_name.lstrip("/")

        def mapped():
            return sum(name in line for line in maps.read_text().splitlines())

        reader = ShmVector.attach(owner.segment_name, "q")
        assert mapped() == 2
        reader.close()
        assert mapped() == 1
        owner.close()
        assert mapped() == 0

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
