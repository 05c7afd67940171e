"""Churn-soak equivalence: a cached RoadService is invisible.

The result cache's whole contract is a negative: turning it on must
change *nothing* but latency.  Each soak drives two twin services —
identical network, identical objects, one with ``result_cache=True`` —
through random interleavings of all six maintenance operations
(edge-weight updates, edge addition/removal, object insert/delete/
attr-update), plus the two object writes that flip an abstract's
pruning answer (an insert onto an object-free leaf, the delete of a
leaf's last object), and batches covering all six query kinds.  Every
batch re-asks one standing set of queries, so an entry the exact
invalidation rule spared is served across the write it survived.
After every batch:

* the cached service's answers are byte-identical to the uncached
  twin's, on the **populate** pass and again on the **hit** pass (the
  second pass re-submits the same batch so the answers really come out
  of the cache), and
* the cached side's snapshot(s) show ``snapshot_divergences == []``
  against a fresh freeze of the uncached twin's maintained road — the
  invalidation hooks never skipped a patch.

The unsharded soak runs the cache over the primary's own (list)
snapshot; the replicated soak runs it above both thread replicas and the
shared-memory process pool.
"""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.frozen_backends import shared_memory_available
from repro.eval.metrics import snapshot_divergences
from repro.objects.model import SpatialObject
from repro.queries.types import (
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixQuery,
    Predicate,
    RangeQuery,
    RouteKNNQuery,
    ServiceAreaQuery,
)
from repro.serving import RoadService, ServiceConfig
from tests.conftest import random_connected_network
from tests.oracle import serving_snapshots
from tests.property.test_frozen_equivalence import random_objects
from tests.serving.test_service import gather_submits

_PREDICATES = (None, Predicate.of(type="a"), Predicate.of(type="b"))


def _random_query(rnd, network, kind):
    node = rnd.randrange(network.num_nodes)
    predicate = rnd.choice(_PREDICATES)
    kwargs = {} if predicate is None else {"predicate": predicate}
    if kind == 0:
        return KNNQuery(node, rnd.randint(1, 4), **kwargs)
    if kind == 1:
        return RangeQuery(node, rnd.uniform(2.0, 30.0), **kwargs)
    if kind == 2:
        nodes = tuple(
            rnd.randrange(network.num_nodes) for _ in range(rnd.randint(2, 3))
        )
        return AggregateKNNQuery(
            nodes, rnd.randint(1, 3), agg=rnd.choice(["sum", "max", "min"]),
            **kwargs,
        )
    if kind == 3:
        sources = tuple(
            rnd.randrange(network.num_nodes) for _ in range(2)
        )
        targets = tuple(
            rnd.randrange(network.num_nodes) for _ in range(2)
        )
        return ODMatrixQuery(sources, targets)
    if kind == 4:
        breaks = tuple(
            rnd.uniform(2.0, 30.0) for _ in range(rnd.randint(1, 2))
        )
        return ServiceAreaQuery(node, breaks, **kwargs)
    path = tuple(
        rnd.randrange(network.num_nodes) for _ in range(rnd.randint(2, 3))
    )
    return RouteKNNQuery(path, rnd.randint(1, 3), **kwargs)


def _query_batch(rnd, network):
    """One of each kind plus a few repeats — no query kind is exempt."""
    queries = [_random_query(rnd, network, kind) for kind in range(6)]
    queries.extend(
        _random_query(rnd, network, rnd.randrange(6)) for _ in range(3)
    )
    rnd.shuffle(queries)
    return queries


def _maintain_twins(rnd, network, cached, uncached, added):
    """Apply one random maintenance op to both services identically.

    Returns False when the drawn op was inapplicable this step (e.g.
    nothing left to delete) — the caller just proceeds to the queries.
    """
    action = rnd.randrange(8)
    edges = sorted((u, v) for u, v, _ in cached.executor.network.edges())
    road = cached.executor.road
    directory = road.directory()
    if action >= 6:
        return _flip_a_leaf(rnd, road, cached, uncached, insert=action == 6)
    if action == 0:  # congestion / clearing
        u, v = edges[rnd.randrange(len(edges))]
        factor = rnd.choice([0.3, 0.5, 1.8, 3.0])
        distance = cached.executor.network.edge_distance(u, v) * factor
        cached.update_edge_distance(u, v, distance)
        uncached.update_edge_distance(u, v, distance)
    elif action == 1:  # new listing
        u, v = edges[rnd.randrange(len(edges))]
        object_id = directory.objects.next_id()
        delta = rnd.uniform(0.0, cached.executor.network.edge_distance(u, v))
        attrs = {"type": rnd.choice(["a", "b"])}
        for service in (cached, uncached):
            service.insert_object(
                SpatialObject(object_id, (u, v), delta, dict(attrs))
            )
    elif action == 2:  # delisting (keep at least one object around)
        ids = directory.objects.ids()
        if len(ids) <= 1:
            return False
        object_id = ids[rnd.randrange(len(ids))]
        cached.delete_object(object_id)
        uncached.delete_object(object_id)
    elif action == 3:  # re-tagging
        ids = directory.objects.ids()
        if not ids:
            return False
        object_id = ids[rnd.randrange(len(ids))]
        attrs = {"type": rnd.choice(["a", "b"])}
        cached.update_object_attrs(object_id, dict(attrs))
        uncached.update_object_attrs(object_id, dict(attrs))
    elif action == 4:  # new road segment (structural)
        for _ in range(20):
            a = rnd.randrange(network.num_nodes)
            b = rnd.randrange(network.num_nodes)
            if a != b and not cached.executor.network.has_edge(a, b):
                break
        else:
            return False
        distance = rnd.uniform(0.5, 8.0)
        cached.add_edge(a, b, distance)
        uncached.add_edge(a, b, distance)
        added.append((a, b))
    else:  # closing a previously-opened segment (structural)
        while added:
            u, v = added.pop()
            if directory.objects.on_edge(u, v):
                continue
            cached.remove_edge(u, v)
            uncached.remove_edge(u, v)
            return True
        return False
    return True


def _flip_a_leaf(rnd, road, cached, uncached, *, insert):
    """Turn one leaf's abstract on (insert onto an object-free leaf) or
    off (delete a leaf's last object): the writes whose reports carry a
    ``mask_rnets`` entry, the only hook a bypass or a descent has."""
    directory = road.directory()
    hosted = {}
    for obj in directory.objects:
        leaf = road.hierarchy.leaf_of_edge(*obj.edge).rnet_id
        hosted.setdefault(leaf, []).append(obj)
    if insert:
        edges = sorted(
            edge
            for leaf in road.hierarchy.leaves()
            if leaf.rnet_id not in hosted
            for edge in leaf.edges
        )
        if not edges:
            return False
        u, v = edges[rnd.randrange(len(edges))]
        obj = SpatialObject(
            directory.objects.next_id(),
            (u, v),
            rnd.uniform(0.0, cached.executor.network.edge_distance(u, v)),
            {"type": rnd.choice(["a", "b"])},
        )
        for service in (cached, uncached):
            service.insert_object(obj)
    else:
        lone = sorted(
            objects[0].object_id
            for objects in hosted.values()
            if len(objects) == 1
        )
        if not lone or len(directory.objects) <= 1:
            return False
        obj = directory.objects.get(lone[rnd.randrange(len(lone))])
        for service in (cached, uncached):
            service.delete_object(obj.object_id)
    leaf = road.hierarchy.leaf_of_edge(*obj.edge).rnet_id
    assert leaf in cached.executor.last_report.mask_rnets
    event(
        "flip: insert onto an object-free leaf"
        if insert
        else "flip: delete a leaf's last object"
    )
    return True


def _soak(seed, config_kwargs, *, steps=5):
    rnd = random.Random(seed)
    network = random_connected_network(
        rnd, rnd.randint(15, 30), rnd.randint(2, 12)
    )
    seed_objects = rnd.randrange(2, 8)
    object_seed = rnd.randrange(1 << 30)
    base = dict(
        mode="frozen", levels=rnd.randint(1, 3), max_batch=64,
    )
    base.update(config_kwargs)
    cached = RoadService.build(
        network.copy(),
        random_objects(random.Random(object_seed), network, seed_objects),
        config=ServiceConfig(result_cache=True, cache_budget=32, **base),
    )
    uncached = RoadService.build(
        network.copy(),
        random_objects(random.Random(object_seed), network, seed_objects),
        config=ServiceConfig(**base),
    )
    added = []
    standing = _query_batch(rnd, network)
    try:
        for _step in range(steps):
            _maintain_twins(rnd, network, cached, uncached, added)
            batch = standing + _query_batch(rnd, network)
            # OD rides the hierarchy too: its Rnet-id footprint is soaked.
            assert any(isinstance(q, ODMatrixQuery) for q in batch)
            expected = uncached.run_many(batch)
            # Populate pass, then hit pass: both byte-identical.
            assert gather_submits(cached, batch) == expected
            assert gather_submits(cached, batch) == expected
            # The cached side's snapshots track the uncached twin's
            # maintained road exactly — the cache never ate a patch.
            fresh = uncached.executor.road.freeze()
            for snapshot in serving_snapshots(cached):
                divergences = snapshot_divergences(
                    rnd, snapshot, fresh, probes=2, k=3, max_radius=20.0
                )
                assert divergences == [], divergences
        counters = cached.stats()["result_cache"]
        assert counters["hits"] > 0  # the hit pass really hit
    finally:
        cached.close()
        uncached.close()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_churn_soak_unsharded(seed):
    """All six maintenance ops x all six query kinds."""
    _soak(seed, {})


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_churn_soak_thread_replicas(seed):
    """The cache sits above thread shards; broadcasts still invalidate."""
    _soak(seed, {"replicas": 2, "replica_mode": "thread"})


@pytest.mark.skipif(
    not shared_memory_available(),
    reason="host has no POSIX shared memory (/dev/shm)",
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_churn_soak_process_replicas(seed):
    """The cache sits above the shared-memory process pool."""
    _soak(seed, {"replicas": 2, "replica_mode": "process"}, steps=3)
