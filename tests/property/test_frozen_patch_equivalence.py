"""Property-based checks: patched FrozenRoad == fresh freeze().

The incremental-freeze contract: after any interleaving of edge-weight
updates, object churn and structural changes, a snapshot kept current with
:meth:`FrozenRoad.apply` must be byte-identical — results, tie order, and
SearchStats — to a snapshot frozen from scratch, whether each update was
delta-patched or fell back to a full recompile.

The churn tests run once per installed array backend: the snapshot under
maintenance is compiled into that backend while the fresh comparator stays
on the default, so the probes also pin cross-backend byte-identity of the
slice-patching paths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.road_adapter import ROADEngine
from repro.core.framework import ROAD
from repro.core.frozen_backends import installed_backends
from repro.eval.metrics import snapshot_divergences
from repro.objects.model import SpatialObject
from repro.queries.types import Predicate
from tests.conftest import random_connected_network
from tests.oracle import assert_same_result, brute_knn
from tests.property.test_frozen_equivalence import random_objects

_OUTCOMES = ("patched", "recompiled")


def _assert_snapshots_identical(rnd, patched, fresh, probes=3, k=4):
    # One contract, defined once: eval.metrics.snapshot_divergences is the
    # same probe the serving and serialize suites hold snapshots to.
    divergences = snapshot_divergences(
        rnd, patched, fresh, probes=probes, k=k, max_radius=20.0
    )
    assert not divergences, divergences


@pytest.mark.parametrize("backend", installed_backends())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_weight_updates_patch_equivalence(backend, seed):
    """Edge-weight churn: the patcher's bread and butter."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(15, 45), rnd.randint(2, 20))
    objects = random_objects(rnd, network, rnd.randint(1, 10))
    road = ROAD.build(network, levels=rnd.randint(1, 3), fanout=4)
    road.attach_objects(objects)
    frozen = road.freeze(backend=backend)
    edges = sorted((u, v) for u, v, _ in network.edges())
    for _ in range(5):
        u, v = edges[rnd.randrange(len(edges))]
        factor = rnd.choice([0.2, 0.5, 1.5, 3.0])
        report = road.update_edge_distance(
            u, v, network.edge_distance(u, v) * factor
        )
        assert frozen.apply(report) in _OUTCOMES
        _assert_snapshots_identical(rnd, frozen, road.freeze())


@pytest.mark.parametrize("backend", installed_backends())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mixed_interleaving_patch_equivalence(backend, seed):
    """Random interleavings of weight updates, object churn and queries."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(15, 40), rnd.randint(2, 15))
    objects = random_objects(rnd, network, rnd.randint(2, 8))
    road = ROAD.build(network, levels=rnd.randint(1, 3), fanout=4)
    directory = road.attach_objects(objects)
    frozen = road.freeze(backend=backend)
    edges = sorted((u, v) for u, v, _ in network.edges())
    pred = Predicate.of(type="a")
    for _step in range(6):
        action = rnd.randrange(3)
        if action == 0:  # congestion / clearing
            u, v = edges[rnd.randrange(len(edges))]
            report = road.update_edge_distance(
                u, v, network.edge_distance(u, v) * rnd.choice([0.4, 2.2])
            )
        elif action == 1:  # new listing
            u, v = edges[rnd.randrange(len(edges))]
            report = road.insert_object(
                SpatialObject(
                    directory.objects.next_id(), (u, v),
                    rnd.uniform(0, network.edge_distance(u, v)),
                    {"type": rnd.choice(["a", "b"])},
                )
            )
        else:  # delisting (keep at least one object around)
            ids = directory.objects.ids()
            if len(ids) <= 1:
                continue
            report = road.delete_object(ids[rnd.randrange(len(ids))])
        assert frozen.apply(report) in _OUTCOMES
        fresh = road.freeze()
        _assert_snapshots_identical(rnd, frozen, fresh)
        nq = rnd.randrange(network.num_nodes)
        got = frozen.knn(nq, 3, pred)
        assert got == road.knn(nq, 3, pred)  # and the charged path agrees
        assert_same_result(got, brute_knn(network, directory.objects, nq, 3, pred))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_structural_fallback_equivalence(seed):
    """Forced-fallback cases: edge addition/removal must recompile cleanly."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(15, 35), rnd.randint(3, 12))
    objects = random_objects(rnd, network, rnd.randint(1, 6), with_attrs=False)
    road = ROAD.build(network, levels=rnd.randint(1, 3), fanout=4)
    directory = road.attach_objects(objects)
    frozen = road.freeze()
    added = []
    for _ in range(3):
        if added and rnd.random() < 0.4:
            u, v = added.pop()
            if directory.objects.on_edge(u, v):
                continue
            report = road.remove_edge(u, v)
        else:
            while True:
                a = rnd.randrange(network.num_nodes)
                b = rnd.randrange(network.num_nodes)
                if a != b and not network.has_edge(a, b):
                    break
            report = road.add_edge(a, b, rnd.uniform(0.5, 8.0))
            added.append((a, b))
        assert report.structural
        assert frozen.apply(report) == "recompiled"
        _assert_snapshots_identical(rnd, frozen, road.freeze())
        nq = rnd.randrange(network.num_nodes)
        assert_same_result(
            frozen.knn(nq, 3), brute_knn(network, directory.objects, nq, 3)
        )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_patch_mode_engine_serves_like_charged(seed):
    """The engine lifecycle end to end: patch-mode frozen == charged."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(15, 35), rnd.randint(2, 12))
    objects = random_objects(rnd, network, rnd.randint(2, 8))
    charged = ROADEngine(network.copy(), objects, levels=2, mode="charged")
    patched = ROADEngine(network.copy(), objects, levels=2, mode="frozen")
    edges = sorted((u, v) for u, v, _ in network.edges())
    for _ in range(4):
        u, v = edges[rnd.randrange(len(edges))]
        factor = rnd.choice([0.5, 2.0])
        new_distance = charged.network.edge_distance(u, v) * factor
        charged.update_edge_distance(u, v, new_distance)
        patched.update_edge_distance(u, v, new_distance)
        nq = rnd.randrange(network.num_nodes)
        assert patched.knn(nq, 4) == charged.knn(nq, 4)
        assert patched.range(nq, 10.0) == charged.range(nq, 10.0)
    counters = patched.stats()["maintenance"]
    assert counters["updates"] == 4
    assert counters["patches_applied"] + counters["patch_fallbacks"] == 4
