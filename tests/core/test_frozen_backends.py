"""Array-backend contract tests that run without numpy installed.

The no-numpy CI leg executes exactly this module: it must import and pass
in an environment with only the stdlib, proving that the core library —
network model, ROAD build, FrozenRoad on every backend, and the patch
lifecycle — never imports numpy.  (The ``"numpy"`` backend is gone: the
name is rejected like any other unknown one, numpy installed or not.)

Fixtures here avoid the numpy-seeded generators on purpose: networks come
from :func:`tests.conftest.random_connected_network` (stdlib ``random``)
and objects are placed by hand.
"""

import random

import pytest

from repro.core.framework import ROAD
from repro.core.frozen_backends import (
    BACKENDS,
    get_backend,
    installed_backends,
    resolve_backend,
)
from repro.core.search import SearchStats
from repro.core.serialize import load_snapshot, save_snapshot
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import Predicate
from tests.conftest import random_connected_network


#: The one rejection every backend config surface raises.
_ONE_OF = r"must be one of \('list', 'shm'\), got 'numpy'"


@pytest.fixture
def built():
    rnd = random.Random(7)
    network = random_connected_network(rnd, 40, 12)
    objects = ObjectSet()
    edges = sorted((u, v) for u, v, _ in network.edges())
    for object_id in range(10):
        u, v = edges[rnd.randrange(len(edges))]
        delta = rnd.uniform(0.0, network.edge_distance(u, v))
        attrs = {"type": rnd.choice(["a", "b"])}
        objects.add(SpatialObject(object_id, (u, v), delta, attrs))
    road = ROAD.build(network, levels=2, fanout=4)
    road.attach_objects(objects)
    return network, road


class TestRegistry:
    def test_stdlib_backends_always_available(self):
        available = installed_backends()
        assert available[:1] == ("list",)
        assert set(available) <= set(BACKENDS)

    def test_two_backends_and_none_is_numpy(self):
        assert BACKENDS == ("list", "shm")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="arrow"):
            get_backend("arrow")

    def test_numpy_name_rejected_by_get_backend(self):
        with pytest.raises(ValueError, match=_ONE_OF):
            get_backend("numpy")

    def test_compact_name_rejected(self, built, tmp_path):
        """The heap typed-buffer layout is gone from every entry point."""
        _, road = built
        one_of = r"must be one of \('list', 'shm'\), got 'compact'"
        with pytest.raises(ValueError, match=one_of):
            road.freeze(backend="compact")
        path = tmp_path / "road.roadsnp"
        frozen = road.freeze()
        save_snapshot(frozen, path)
        frozen.close()
        with pytest.raises(ValueError, match=one_of):
            load_snapshot(path, backend="compact")

    def test_backend_env_is_ignored(self, monkeypatch, built):
        """No environment variable picks a layout: a heap snapshot is a
        list one, whatever ``REPRO_BACKEND`` says."""
        monkeypatch.setenv("REPRO_BACKEND", "shm")
        assert resolve_backend(None).name == "list"
        assert built[1].freeze().backend == "list"

    def test_resolve_backend_passthrough(self):
        instance = get_backend("list")
        assert resolve_backend(instance) is instance
        assert resolve_backend("list").name == "list"

    def test_backend_names_case_insensitive(self):
        # every config surface (freeze, load_snapshot) accepts any case
        assert get_backend("List").name == "list"
        assert resolve_backend("LIST").name == "list"


class TestStdlibParity:
    def test_backends_serve_byte_identical(self, built):
        network, road = built
        reference = road.freeze(backend="list")
        pred = Predicate.of(type="a")
        for name in installed_backends():
            frozen = road.freeze(backend=name)
            assert frozen.backend == name
            for node in range(0, network.num_nodes, 5):
                s_ref, s_got = SearchStats(), SearchStats()
                want = reference.knn(node, 4, stats=s_ref)
                got = frozen.knn(node, 4, stats=s_got)
                assert got == want, name
                assert s_got == s_ref, name
                assert frozen.range(node, 8.0, pred) == reference.range(
                    node, 8.0, pred
                ), name
                assert frozen.aggregate_knn(
                    [node, (node + 7) % network.num_nodes], 3
                ) == reference.aggregate_knn(
                    [node, (node + 7) % network.num_nodes], 3
                ), name

    def test_matches_charged_path(self, built):
        network, road = built
        for name in installed_backends():
            frozen = road.freeze(backend=name)
            for node in range(0, network.num_nodes, 7):
                assert frozen.knn(node, 3) == road.knn(node, 3), name

    def test_patch_lifecycle_per_backend(self, built):
        network, road = built
        snapshots = {
            name: road.freeze(backend=name) for name in installed_backends()
        }
        edges = sorted((u, v) for u, v, _ in network.edges())
        rnd = random.Random(3)
        # weight churn (slice-assigned span rewrites) ...
        for _ in range(3):
            u, v = edges[rnd.randrange(len(edges))]
            report = road.update_edge_distance(
                u, v, network.edge_distance(u, v) * rnd.choice([0.5, 2.0])
            )
            for frozen in snapshots.values():
                frozen.apply(report)
        # ... and object churn (size-changing splices)
        u, v = edges[0]
        new_id = road.directory().objects.next_id()
        report = road.insert_object(
            SpatialObject(new_id, (u, v), 0.0, {"type": "a"})
        )
        for frozen in snapshots.values():
            frozen.apply(report)
        report = road.delete_object(new_id)
        for frozen in snapshots.values():
            frozen.apply(report)
        fresh = road.freeze(backend="list")
        for name, frozen in snapshots.items():
            for node in range(0, network.num_nodes, 6):
                assert frozen.knn(node, 4) == fresh.knn(node, 4), name
