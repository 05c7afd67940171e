"""Generators: connectivity, target ratios, determinism, metric variants."""

import pytest

from repro.graph.generators import (
    GeneratorError,
    ca_like,
    chain_network,
    grid_network,
    na_like,
    road_network,
    sf_like,
    travel_time_metric,
)


class TestRoadNetwork:
    def test_connected_and_sized(self):
        net = road_network(200, 1.2, seed=1)
        assert net.num_nodes == 200
        assert net.connected()

    def test_edge_ratio_hit_within_tolerance(self):
        net = road_network(500, 1.25, seed=2)
        assert net.num_edges / net.num_nodes == pytest.approx(1.25, abs=0.02)

    def test_deterministic_under_seed(self):
        a = road_network(100, 1.1, seed=5)
        b = road_network(100, 1.1, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())
        assert [a.coords(n) for n in a.node_ids()] == [
            b.coords(n) for n in b.node_ids()
        ]

    def test_different_seeds_differ(self):
        a = road_network(100, 1.1, seed=5)
        b = road_network(100, 1.1, seed=6)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_weights_dominate_euclidean(self):
        net = road_network(150, 1.2, seed=3)
        for u, v, d in net.edges():
            assert d >= net.euclidean(u, v) - 1e-9

    def test_clustered_generation(self):
        net = road_network(300, 1.05, seed=4, clusters=5)
        assert net.connected()
        assert net.num_nodes == 300

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GeneratorError):
            road_network(2, 1.0)

    def test_sub_tree_ratio_rejected(self):
        with pytest.raises(GeneratorError):
            road_network(100, 0.5)


class TestDatasetProfiles:
    def test_ca_profile(self):
        net = ca_like(num_nodes=400, seed=1)
        assert net.connected()
        assert net.num_edges / net.num_nodes == pytest.approx(1.031, abs=0.03)

    def test_na_profile(self):
        net = na_like(num_nodes=400, seed=1)
        assert net.connected()
        assert net.num_edges / net.num_nodes == pytest.approx(1.019, abs=0.03)

    def test_sf_profile_denser_than_na(self):
        sf = sf_like(num_nodes=400, seed=1)
        na = na_like(num_nodes=400, seed=1)
        assert sf.num_edges > na.num_edges


class TestGridChain:
    def test_grid_dimensions(self):
        net = grid_network(4, 6, seed=0)
        assert net.num_nodes == 24
        assert net.num_edges == 4 * 5 + 6 * 3  # rows*(cols-1) + cols*(rows-1)
        assert net.connected()

    def test_grid_removal_keeps_connected(self):
        net = grid_network(8, 8, seed=1, removal_prob=0.3)
        assert net.connected()
        assert net.num_edges < 2 * 7 * 8

    def test_grid_too_small_rejected(self):
        with pytest.raises(GeneratorError):
            grid_network(1, 5)

    def test_chain_structure(self):
        net = chain_network(5, spacing=10.0)
        assert net.num_nodes == 5
        assert net.num_edges == 4
        assert net.edge_distance(2, 3) == 10.0

    def test_chain_too_small_rejected(self):
        with pytest.raises(GeneratorError):
            chain_network(1)


class TestTravelTimeMetric:
    def test_reweighting_preserves_topology(self):
        base = grid_network(5, 5, seed=2)
        timed = travel_time_metric(base, seed=3)
        assert timed.metric == "travel_time"
        assert sorted((u, v) for u, v, _ in timed.edges()) == sorted(
            (u, v) for u, v, _ in base.edges()
        )

    def test_travel_time_breaks_euclidean_bound(self):
        """With fast roads, travel time < Euclidean length for some edge."""
        base = grid_network(5, 5, seed=2)
        timed = travel_time_metric(base, seed=3, speed_range=(50.0, 120.0))
        assert any(d < timed.euclidean(u, v) for u, v, d in timed.edges())

    def test_invalid_speed_range(self):
        base = grid_network(3, 3, seed=0)
        with pytest.raises(GeneratorError):
            travel_time_metric(base, speed_range=(0.0, 10.0))
        with pytest.raises(GeneratorError):
            travel_time_metric(base, speed_range=(10.0, 5.0))
