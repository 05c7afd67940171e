"""RoadNetwork model: construction rules, mutation, derived views."""

import pytest

from repro.graph.network import NetworkError, RoadNetwork, edge_key


@pytest.fixture
def triangle() -> RoadNetwork:
    net = RoadNetwork()
    net.add_node(1, 0, 0)
    net.add_node(2, 3, 0)
    net.add_node(3, 0, 4)
    net.add_edge(1, 2, 3.0)
    net.add_edge(1, 3, 4.0)
    net.add_edge(2, 3, 5.0)
    return net


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_duplicate_node_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_node(1)

    def test_duplicate_edge_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_edge(2, 1, 9.0)  # same undirected edge

    def test_self_loop_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_edge(1, 1, 1.0)

    def test_non_positive_distance_rejected(self, triangle):
        triangle.add_node(4)
        old = triangle.edge_distance(1, 2)
        # NaN compares false against everything: it needs the finite check.
        for distance in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(NetworkError):
                triangle.add_edge(1, 4, distance)
            with pytest.raises(NetworkError):
                triangle.update_edge(1, 2, distance)
        assert not triangle.has_edge(1, 4)
        assert triangle.edge_distance(1, 2) == old

    def test_edge_to_missing_node_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_edge(1, 99, 1.0)

    def test_edge_key_is_canonical(self):
        assert edge_key(5, 2) == edge_key(2, 5) == (2, 5)

    def test_metric_label(self):
        assert RoadNetwork(metric="travel_time").metric == "travel_time"


class TestAccess:
    def test_neighbours_symmetric(self, triangle):
        assert dict(triangle.neighbours(1)) == {2: 3.0, 3: 4.0}
        assert dict(triangle.neighbours(2)) == {1: 3.0, 3: 5.0}

    def test_degree(self, triangle):
        assert triangle.degree(1) == 2

    def test_edge_distance_both_directions(self, triangle):
        assert triangle.edge_distance(1, 2) == 3.0
        assert triangle.edge_distance(2, 1) == 3.0

    def test_edges_iterates_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_missing_node_access_raises(self, triangle):
        with pytest.raises(NetworkError):
            triangle.neighbours(99)
        with pytest.raises(NetworkError):
            triangle.degree(99)
        with pytest.raises(NetworkError):
            triangle.coords(99)

    def test_missing_edge_distance_raises(self, triangle):
        triangle.add_node(4)
        with pytest.raises(NetworkError):
            triangle.edge_distance(1, 4)

    def test_euclidean(self, triangle):
        assert triangle.euclidean(2, 3) == pytest.approx(5.0)

    def test_bounding_box(self, triangle):
        assert triangle.bounding_box() == (0, 0, 3, 4)

    def test_empty_bounding_box_raises(self):
        with pytest.raises(NetworkError):
            RoadNetwork().bounding_box()

    def test_total_edge_distance(self, triangle):
        assert triangle.total_edge_distance() == pytest.approx(12.0)


class TestMutation:
    def test_update_edge_returns_old(self, triangle):
        old = triangle.update_edge(1, 2, 10.0)
        assert old == 3.0
        assert triangle.edge_distance(2, 1) == 10.0

    def test_update_missing_edge_raises(self, triangle):
        triangle.add_node(4)
        with pytest.raises(NetworkError):
            triangle.update_edge(1, 4, 5.0)

    def test_update_rejects_non_positive(self, triangle):
        with pytest.raises(NetworkError):
            triangle.update_edge(1, 2, 0.0)

    def test_remove_edge_returns_distance(self, triangle):
        assert triangle.remove_edge(1, 2) == 3.0
        assert not triangle.has_edge(1, 2)
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        triangle.remove_edge(1, 2)
        with pytest.raises(NetworkError):
            triangle.remove_edge(1, 2)

    def test_remove_node_drops_incident_edges(self, triangle):
        triangle.remove_node(1)
        assert triangle.num_nodes == 2
        assert triangle.num_edges == 1
        assert not triangle.has_node(1)

    def test_set_coords(self, triangle):
        triangle.set_coords(1, 10.0, 20.0)
        assert triangle.coords(1) == (10.0, 20.0)


class TestDerivedViews:
    def test_copy_is_independent(self, triangle):
        dup = triangle.copy()
        dup.update_edge(1, 2, 99.0)
        assert triangle.edge_distance(1, 2) == 3.0
        assert dup.num_nodes == triangle.num_nodes

    def test_edge_subgraph(self, triangle):
        sub = triangle.edge_subgraph([(1, 2), (1, 3)])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        assert not sub.has_edge(2, 3)

    def test_connected_detection(self, triangle):
        assert triangle.connected()
        triangle.add_node(99)
        assert not triangle.connected()

    def test_empty_network_is_connected(self):
        assert RoadNetwork().connected()

    def test_components(self, triangle):
        triangle.add_node(50)
        triangle.add_node(51)
        triangle.add_edge(50, 51, 1.0)
        comps = sorted(triangle.components(), key=len)
        assert len(comps) == 2
        assert comps[0] == {50, 51}
        assert comps[1] == {1, 2, 3}
