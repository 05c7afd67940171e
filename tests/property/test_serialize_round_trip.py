"""Property-based check: persistence is invisible to the frozen contract.

Two persistence layers, one contract:

* freeze → ``save_road`` → ``load_road`` → freeze again must yield a
  snapshot with ``snapshot_divergences == []`` against the original —
  per installed array backend and per attached directory;
* freeze → ``save_snapshot`` → ``load_snapshot`` (the zero-copy mmap
  cold-start path, and every materialising backend) must serve
  identically too — *without* recompiling — and the snapshot bytes must
  be canonical: saving from any backend, or re-saving from a loaded
  snapshot, produces the identical file.

The probe is the same byte-identity contract the byte-identity model
enforces (results, tie order, SearchStats, predicate-filtered and
aggregate queries), so a persistence bug cannot hide behind a weaker
comparison.  Corrupted snapshots (flipped payload byte, truncation,
foreign magic) must be rejected with :class:`SerializeError` before any
unpickling happens.
"""

import hashlib
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frozen import FrozenRoad
from repro.core.frozen_backends import installed_backends
from repro.core.serialize import (
    SNAPSHOT_MAGIC,
    SerializeError,
    load_road,
    load_snapshot,
    save_road,
    save_snapshot,
)
from repro.eval.metrics import snapshot_divergences
from tests.oracle import DIRECTORIES, build_multi_road


@pytest.mark.parametrize("backend", installed_backends())
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_diverges_nowhere(backend, seed, tmp_path_factory):
    rnd = random.Random(seed)
    _network, road, _directories = build_multi_road(rnd)
    path = tmp_path_factory.mktemp("idx") / f"round-{backend}-{seed}.roadidx"

    written = save_road(road, path)
    assert written == path.stat().st_size > 0
    loaded = load_road(path)

    original = road.freeze(backend=backend)
    reloaded = loaded.freeze(backend=backend)
    assert reloaded.directory_names == original.directory_names

    probe = random.Random(seed + 1)
    for name in DIRECTORIES:
        divergences = snapshot_divergences(
            probe,
            reloaded,
            road.freeze(directory=name, backend=backend),
            probes=2,
            k=4,
            max_radius=20.0,
            directory=name,
        )
        assert divergences == [], (backend, name, divergences)

    # The combined snapshots also agree with each other on their defaults.
    assert snapshot_divergences(
        random.Random(seed + 2), reloaded, original, probes=2, k=4,
        max_radius=20.0,
    ) == []


@pytest.mark.parametrize("backend", installed_backends())
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_snapshot_round_trip_diverges_nowhere(backend, seed, tmp_path_factory):
    rnd = random.Random(seed)
    _network, road, _directories = build_multi_road(rnd)
    path = tmp_path_factory.mktemp("snp") / f"snap-{backend}-{seed}.roadsnp"

    original = road.freeze(backend=backend)
    written = save_snapshot(original, path)
    assert written == path.stat().st_size > 0

    # Cold start: mmap the file, serve without freezing or recompiling.
    cold = load_snapshot(path)
    assert cold.backend == "mmap"
    assert cold.directory_names == original.directory_names
    probe = random.Random(seed + 1)
    for name in DIRECTORIES:
        divergences = snapshot_divergences(
            probe, cold, road.freeze(directory=name, backend=backend),
            probes=2, k=4, max_radius=20.0, directory=name,
        )
        assert divergences == [], (backend, name, divergences)

    # Materialise into this backend: same contract, and re-saving (from
    # the materialised copy *and* from the mmap view) reproduces the
    # canonical bytes — the format is backend-free.
    warm = load_snapshot(path, backend=backend)
    assert snapshot_divergences(
        random.Random(seed + 2), warm, original, probes=2, k=4,
        max_radius=20.0,
    ) == []
    canonical = path.read_bytes()
    resaved = path.with_suffix(".resaved")
    for source in (warm, cold):
        save_snapshot(source, resaved)
        assert resaved.read_bytes() == canonical, backend

    for frozen in (cold, warm, original):
        frozen.close()


def _with_meta(path, out, **extra):
    """Re-write snapshot ``path`` to ``out`` with ``extra`` meta keys,
    re-sealed (length, padding and checksum) like :func:`save_snapshot`."""
    data = path.read_bytes()
    header = len(SNAPSHOT_MAGIC) + 8 + 32
    (meta_len,) = struct.unpack_from("<Q", data, header)
    meta_end = 8 + meta_len
    meta = pickle.loads(data[header + 8 : header + meta_end])
    blob = data[header + meta_end + (-meta_end) % 8 :]
    meta.update(extra)
    head = pickle.dumps(meta)
    head = struct.pack("<Q", len(head)) + head
    payload = head + b"\0" * (-len(head) % 8) + blob
    out.write_bytes(
        SNAPSHOT_MAGIC
        + struct.pack("<Q", len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )


def test_snapshot_with_mask_budget_key_still_loads(tmp_path):
    """Files saved while the mask budget was a knob carry a
    ``mask_budget`` meta key; every load path still serves them."""
    _network, road, _directories = build_multi_road(random.Random(3))
    saved = tmp_path / "saved.roadsnp"
    original = road.freeze()
    save_snapshot(original, saved)
    older = tmp_path / "older.roadsnp"
    _with_meta(saved, older, mask_budget=64)
    for backend in (None, *installed_backends()):
        loaded = load_snapshot(older, backend=backend)
        assert snapshot_divergences(
            random.Random(4), loaded, original, probes=2, k=4,
            max_radius=20.0,
        ) == [], backend
        loaded.close()
    original.close()


def test_snapshot_without_od_arrays_is_refused(tmp_path, monkeypatch):
    """A file saved before the OD target arrays existed is refused by
    name on every load path, never with a bare ``KeyError``."""
    _network, road, _directories = build_multi_road(random.Random(5))
    export_parts = FrozenRoad.export_parts

    def without_od_arrays(self):
        parts = export_parts(self)
        del parts["arrays"]["home_slot"], parts["arrays"]["slot_parent"]
        return parts

    path = tmp_path / "older.roadsnp"
    frozen = road.freeze()
    with monkeypatch.context() as patch:
        patch.setattr(FrozenRoad, "export_parts", without_od_arrays)
        save_snapshot(frozen, path)
    frozen.close()
    for backend in (None, *installed_backends()):
        with pytest.raises(SerializeError, match="home_slot, slot_parent"):
            load_snapshot(path, backend=backend)


def test_snapshot_rejects_corruption(tmp_path):
    _network, road, _directories = build_multi_road(random.Random(7))
    path = tmp_path / "good.roadsnp"
    frozen = road.freeze()
    save_snapshot(frozen, path)
    frozen.close()
    blob = bytearray(path.read_bytes())

    # A flipped payload byte fails the checksum before any unpickle.
    flipped = tmp_path / "flipped.roadsnp"
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    flipped.write_bytes(corrupt)
    with pytest.raises(SerializeError, match="checksum"):
        load_snapshot(flipped)

    # A truncated payload is rejected on length, not parsed partially.
    truncated = tmp_path / "truncated.roadsnp"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SerializeError):
        load_snapshot(truncated)

    # Foreign bytes are not a snapshot at all.
    foreign = tmp_path / "foreign.roadsnp"
    foreign.write_bytes(b"PNG\x0d\x0a\x1a\x0a" + bytes(64))
    with pytest.raises(SerializeError, match="not a ROAD snapshot"):
        load_snapshot(foreign)
