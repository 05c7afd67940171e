"""Property-based checks: FrozenRoad == charged path == brute force.

The compiled fast path must return *byte-identical* results to the charged
search on the same snapshot (including tie order), match the brute-force
Dijkstra oracle, and never touch the pager while answering.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import ROAD
from repro.core.frozen_backends import installed_backends
from repro.core.object_abstract import counting_abstract, exact_abstract
from repro.core.search import SearchStats
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import ANY, Predicate
from tests.conftest import random_connected_network
from tests.oracle import assert_same_result, brute_knn, brute_range


def random_objects(rnd, network, count, with_attrs=True):
    objects = ObjectSet()
    edges = sorted((u, v) for u, v, _ in network.edges())
    for object_id in range(count):
        u, v = edges[rnd.randrange(len(edges))]
        delta = rnd.uniform(0.0, network.edge_distance(u, v))
        attrs = {"type": rnd.choice(["a", "b"])} if with_attrs else {}
        objects.add(SpatialObject(object_id, (u, v), delta, attrs))
    return objects


def _assert_no_pager_traffic(road, run):
    before = road.pager.stats.snapshot()
    out = run()
    diff = road.pager.stats.diff(before)
    assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0), (
        f"frozen query touched the pager: {diff}"
    )
    return out


def _assert_one_side_per_rnet(road, stats, predicate=ANY):
    """Every examined Rnet took exactly the side its one abstract answer
    names: bypassed iff the directory says it cannot hold a match, so no
    Rnet is both bypassed and descended within one query."""
    directory = road.directory()
    assert stats.bypassed_rnets == {
        rnet_id
        for rnet_id in stats.visited_rnets
        if not directory.rnet_may_contain(rnet_id, predicate)
    }


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    levels=st.integers(1, 4),
    fanout=st.sampled_from([2, 4]),
    k=st.integers(1, 6),
)
def test_frozen_knn_equivalence(seed, levels, fanout, k):
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(12, 60), rnd.randint(0, 30))
    objects = random_objects(rnd, network, rnd.randint(1, 12))
    road = ROAD.build(network, levels=levels, fanout=fanout)
    road.attach_objects(objects)
    frozen = road.freeze()
    for _ in range(4):
        nq = rnd.randrange(network.num_nodes)
        got = _assert_no_pager_traffic(road, lambda: frozen.knn(nq, k))
        assert got == road.knn(nq, k)  # byte-identical to the charged path
        assert_same_result(got, brute_knn(network, objects, nq, k))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), radius=st.floats(0.0, 40.0))
def test_frozen_range_equivalence(seed, radius):
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(12, 50), rnd.randint(0, 25))
    objects = random_objects(rnd, network, rnd.randint(1, 10))
    road = ROAD.build(network, levels=rnd.randint(1, 3), fanout=4)
    road.attach_objects(objects)
    frozen = road.freeze()
    for _ in range(3):
        nq = rnd.randrange(network.num_nodes)
        got = _assert_no_pager_traffic(road, lambda: frozen.range(nq, radius))
        assert got == road.range(nq, radius)
        assert_same_result(got, brute_range(network, objects, nq, radius))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), counting=st.booleans())
def test_frozen_predicate_equivalence(seed, counting):
    """Predicate pruning through the snapshot masks, both abstract kinds."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(15, 40), rnd.randint(0, 20))
    objects = random_objects(rnd, network, rnd.randint(2, 10))
    road = ROAD.build(network, levels=2, fanout=4)
    road.attach_objects(
        objects,
        abstract_factory=counting_abstract if counting else exact_abstract,
    )
    frozen = road.freeze()
    pred = Predicate.of(type="a")
    for _ in range(3):
        nq = rnd.randrange(network.num_nodes)
        s_frozen, s_charged = SearchStats(), SearchStats()
        got = _assert_no_pager_traffic(
            road, lambda: frozen.knn(nq, 3, pred, stats=s_frozen)
        )
        assert got == road.knn(nq, 3, pred, stats=s_charged)
        assert s_frozen == s_charged  # bypassed_rnets included
        _assert_one_side_per_rnet(road, s_charged, pred)
        assert_same_result(got, brute_knn(network, objects, nq, 3, pred))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_refreeze_after_maintenance_equivalence(seed):
    """A fresh freeze after updates must track the live index exactly."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, rnd.randint(15, 40), rnd.randint(2, 20))
    objects = random_objects(rnd, network, rnd.randint(1, 8), with_attrs=False)
    road = ROAD.build(network, levels=rnd.randint(1, 3), fanout=4)
    directory = road.attach_objects(objects)
    edges = list(network.edges())
    for _ in range(3):
        u, v, _ = edges[rnd.randrange(len(edges))]
        road.update_edge_distance(
            u, v, network.edge_distance(u, v) * rnd.choice([0.3, 1.7, 4.0])
        )
        frozen = road.freeze()
        nq = rnd.randrange(network.num_nodes)
        got = _assert_no_pager_traffic(road, lambda: frozen.knn(nq, 3))
        assert got == road.knn(nq, 3)
        assert_same_result(got, brute_knn(network, directory.objects, nq, 3))


def test_range_whole_stats_parity_on_the_largest_network():
    """Whole SearchStats — counters and footprint — charged == frozen on
    every backend, over 240 range queries on the suite's largest size.

    The radius stop drops the entry whose pop tripped it; which entry
    that is differs across engines (the charged frontier pops stale
    duplicates the frozen sweep never pushed), so the footprint only
    agrees because both count every node they pushed.
    """
    rnd = random.Random(15)
    network = random_connected_network(rnd, 60, 30)
    objects = random_objects(rnd, network, 12)
    road = ROAD.build(network, levels=3, fanout=4)
    road.attach_objects(objects)
    snapshots = [road.freeze(backend=name) for name in installed_backends()]
    for node in range(network.num_nodes):
        for radius in (3.0, 7.0, 12.0, 20.0):
            charged = SearchStats()
            want = road.range(node, radius, stats=charged)
            for frozen in snapshots:
                got = SearchStats()
                assert frozen.range(node, radius, stats=got) == want
                assert got == charged, (frozen.backend, node, radius)
            _assert_one_side_per_rnet(road, charged)
    for frozen in snapshots:
        frozen.close()
