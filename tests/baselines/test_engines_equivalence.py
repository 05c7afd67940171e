"""All four engines must return identical answers (the paper's ground rule)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DistanceIndexEngine,
    EuclideanEngine,
    NetworkExpansionEngine,
    ROADEngine,
)
from repro.graph.generators import grid_network
from repro.objects.placement import place_uniform
from repro.queries.types import Predicate
from tests.conftest import random_connected_network
from tests.oracle import assert_same_result, brute_knn, brute_range, random_objects


@pytest.fixture(scope="module")
def setting():
    network = grid_network(9, 9, seed=11)
    objects = place_uniform(network, 14, seed=4, attr_choices={"type": ["a", "b"]})
    engines = [
        NetworkExpansionEngine(network.copy(), objects),
        EuclideanEngine(network.copy(), objects),
        DistanceIndexEngine(network.copy(), objects),
        ROADEngine(network.copy(), objects, levels=3),
    ]
    return network, objects, engines


class TestKnnEquivalence:
    @pytest.mark.parametrize("nq", [0, 12, 40, 44, 80])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_knn_matches_oracle(self, setting, nq, k):
        network, objects, engines = setting
        expected = brute_knn(network, objects, nq, k)
        for engine in engines:
            got = engine.knn(nq, k)
            assert_same_result(got, expected), engine.name

    def test_k_larger_than_object_count(self, setting):
        network, objects, engines = setting
        expected = brute_knn(network, objects, 5, 100)
        for engine in engines:
            assert_same_result(engine.knn(5, 100), expected)

    def test_invalid_k_rejected_by_all(self, setting):
        _, _, engines = setting
        for engine in engines:
            with pytest.raises(ValueError):
                engine.knn(0, 0)

    def test_predicate_knn(self, setting):
        network, objects, engines = setting
        pred = Predicate.of(type="a")
        expected = brute_knn(network, objects, 30, 4, pred)
        for engine in engines:
            assert_same_result(engine.knn(30, 4, pred), expected)


class TestRangeEquivalence:
    @pytest.mark.parametrize("nq,r", [(0, 150.0), (40, 300.0), (80, 500.0)])
    def test_range_matches_oracle(self, setting, nq, r):
        network, objects, engines = setting
        expected = brute_range(network, objects, nq, r)
        for engine in engines:
            assert_same_result(engine.range(nq, r), expected), engine.name

    def test_radius_zero(self, setting):
        network, objects, engines = setting
        expected = brute_range(network, objects, 7, 0.0)
        for engine in engines:
            assert_same_result(engine.range(7, 0.0), expected)

    def test_negative_radius_rejected(self, setting):
        _, _, engines = setting
        for engine in engines:
            with pytest.raises(ValueError):
                engine.range(0, -1.0)

    def test_predicate_range(self, setting):
        network, objects, engines = setting
        pred = Predicate.of(type="b")
        expected = brute_range(network, objects, 44, 400.0, pred)
        for engine in engines:
            assert_same_result(engine.range(44, 400.0, pred), expected)


class TestMaintenanceEquivalence:
    def test_object_churn_consistency(self):
        network = grid_network(7, 7, seed=3)
        objects = place_uniform(network, 8, seed=8)
        engines = [
            NetworkExpansionEngine(network.copy(), objects),
            EuclideanEngine(network.copy(), objects),
            DistanceIndexEngine(network.copy(), objects),
            ROADEngine(network.copy(), objects, levels=2),
        ]
        from repro.objects.model import SpatialObject

        u, v, d = next(network.edges())
        new_obj = SpatialObject(objects.next_id(), (u, v), d / 3)
        for engine in engines:
            engine.insert_object(new_obj)
        victim = objects.ids()[0]
        for engine in engines:
            engine.delete_object(victim)
        reference = engines[0]
        expected = brute_knn(network, reference.objects, 24, 5)
        for engine in engines:
            assert_same_result(engine.knn(24, 5), expected), engine.name

    def test_edge_update_consistency(self):
        network = grid_network(7, 7, seed=5)
        objects = place_uniform(network, 8, seed=9)
        engines = [
            NetworkExpansionEngine(network.copy(), objects),
            EuclideanEngine(network.copy(), objects),
            DistanceIndexEngine(network.copy(), objects),
            ROADEngine(network.copy(), objects, levels=2),
        ]
        u, v, d = next(network.edges())
        for engine in engines:
            engine.update_edge_distance(u, v, d * 4)
        reference = engines[0]
        # use the engine's own network (each got a copy) for the oracle
        expected = brute_knn(
            reference.network, reference.objects, 10, 5
        )
        for engine in engines:
            assert_same_result(engine.knn(10, 5), expected), engine.name


class TestAccounting:
    def test_all_engines_report_sizes(self, setting):
        _, _, engines = setting
        for engine in engines:
            assert engine.index_size_bytes > 0
            assert engine.build_seconds > 0

    def test_distidx_largest_index(self, setting):
        """Figure 13's headline: DistIdx dwarfs the others."""
        _, _, engines = setting
        sizes = {e.name: e.index_size_bytes for e in engines}
        assert sizes["DistIdx"] >= max(
            sizes["NetExp"], sizes["Euclidean"]
        )

    def test_queries_charge_io_on_cold_cache(self, setting):
        _, _, engines = setting
        for engine in engines:
            engine.reset_io()
            engine.knn(40, 3)
            assert engine.pager.stats.reads > 0, engine.name

    def test_execute_dispatch(self, setting):
        from repro.queries.types import KNNQuery, RangeQuery

        _, _, engines = setting
        for engine in engines:
            assert engine.execute(KNNQuery(0, 2))
            engine.execute(RangeQuery(0, 100.0))
            with pytest.raises(TypeError):
                engine.execute(42)


def euclidean_sound_network(rnd, num_nodes, extra_edges):
    """Random connected network whose weights dominate Euclidean length."""
    network = random_connected_network(rnd, num_nodes, extra_edges)
    for u, v, _ in list(network.edges()):
        network.update_edge(u, v, network.euclidean(u, v) + rnd.uniform(0.1, 3.0))
    return network


def _four_engines(network, objects):
    return [
        NetworkExpansionEngine(network.copy(), objects),
        EuclideanEngine(network.copy(), objects),
        DistanceIndexEngine(network.copy(), objects),
        ROADEngine(network.copy(), objects, levels=2),
    ]


class TestRandomNetworks:
    """The same agreement on random Euclidean-sound networks."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_four_engines_agree_on_knn(self, seed):
        rnd = random.Random(seed)
        network = euclidean_sound_network(
            rnd, rnd.randint(12, 30), rnd.randint(0, 15)
        )
        objects = random_objects(
            rnd, network, rnd.randint(1, 8), with_attrs=False
        )
        engines = _four_engines(network, objects)
        for _ in range(3):
            nq = rnd.randrange(network.num_nodes)
            k = rnd.randint(1, 4)
            expected = brute_knn(network, objects, nq, k)
            for engine in engines:
                assert_same_result(engine.knn(nq, k), expected)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), radius=st.floats(0.0, 30.0))
    def test_four_engines_agree_on_range(self, seed, radius):
        rnd = random.Random(seed)
        network = euclidean_sound_network(
            rnd, rnd.randint(12, 25), rnd.randint(0, 12)
        )
        objects = random_objects(
            rnd, network, rnd.randint(1, 6), with_attrs=False
        )
        nq = rnd.randrange(network.num_nodes)
        expected = brute_range(network, objects, nq, radius)
        for engine in _four_engines(network, objects):
            assert_same_result(engine.range(nq, radius), expected)
