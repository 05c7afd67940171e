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


class TestStorage:
    """Adjacency as one flat list per node, coordinates in one array.

    What the dict-of-dicts model promised — insertion order, exact floats,
    any integer id — must hold whichever store a node lands in.
    """

    def test_coords_round_trip_bit_exact(self):
        values = [-0.0, 0.0, 0.1, 1e-310, -1.5e300, 2.0 / 3.0, 12345.678901]
        net = RoadNetwork()
        for i, (x, y) in enumerate(zip(values, reversed(values))):
            net.add_node(i, x, y)
        for i, (x, y) in enumerate(zip(values, reversed(values))):
            got = net.coords(i)
            assert type(got) is tuple
            assert [c.hex() for c in got] == [x.hex(), y.hex()]

    def test_ids_outside_the_dense_range(self):
        net = RoadNetwork()
        ids = [0, 1, -3, 10**9, 2, 7]
        for i in ids:
            net.add_node(i, i * 0.5, -0.0)
        assert list(net.node_ids()) == ids
        for i in ids:
            assert net.coords(i) == (i * 0.5, 0.0)
            assert net.coords(i)[1].hex() == (-0.0).hex()
        net.add_node(3, 1.0, 1.0)  # the dense range reaches 7's id ...
        net.add_node(4, 1.0, 1.0)
        net.add_node(5, 1.0, 1.0)
        net.add_node(6, 1.0, 1.0)
        net.set_coords(7, 8.0, 9.0)  # ... yet 7 stays in the dict
        assert net.coords(7) == (8.0, 9.0)
        net.add_node(8, 2.0, 3.0)
        assert net.coords(7) == (8.0, 9.0) and net.coords(8) == (2.0, 3.0)
        net.add_edge(-3, 10**9, 2.0)
        net.add_edge(10**9, 1, 3.0)
        assert list(net.neighbours(10**9)) == [(-3, 2.0), (1, 3.0)]
        net.set_coords(-3, 4.0, 5.0)
        assert net.coords(-3) == (4.0, 5.0)
        net.remove_node(10**9)
        assert not net.has_node(10**9)
        with pytest.raises(NetworkError):
            net.coords(10**9)
        assert net.degree(-3) == net.degree(1) == 0

    def test_remove_node_then_re_add(self, triangle):
        triangle.add_node(0, 9.0, 9.0)  # a dense id after sparse ones
        triangle.remove_node(2)
        with pytest.raises(NetworkError):
            triangle.coords(2)
        triangle.add_node(2, -1.0, -2.0)
        assert triangle.coords(2) == (-1.0, -2.0)
        assert triangle.degree(2) == 0
        assert list(triangle.node_ids()) == [1, 3, 0, 2]
        triangle.remove_node(0)
        triangle.add_node(0, 7.0, 8.0)
        assert triangle.coords(0) == (7.0, 8.0)

    def test_set_coords_and_copy_order(self):
        net = RoadNetwork(metric="toll")
        for i in (3, 0, 1, -5, 2):
            net.add_node(i, i, 2 * i)
        net.add_edge(0, 1, 1.5)
        net.add_edge(3, -5, 2.5)
        net.add_edge(1, 2, 0.5)
        net.set_coords(1, -0.0, 11.0)
        net.set_coords(3, 30.0, 31.0)
        dup = net.copy()
        assert dup.metric == "toll"
        assert list(dup.node_ids()) == [3, 0, 1, -5, 2]
        assert list(dup.edges()) == list(net.edges())
        for i in net.node_ids():
            assert [c.hex() for c in dup.coords(i)] == [
                c.hex() for c in net.coords(i)
            ]
            assert list(dup.neighbours(i)) == list(net.neighbours(i))
        assert net.bounding_box() == (-5.0, -10.0, 30.0, 31.0)
        dup.set_coords(1, 5.0, 5.0)
        assert net.coords(1)[0].hex() == (-0.0).hex()

    def test_neighbours_order_after_remove_and_re_add(self):
        net = RoadNetwork()
        for i in range(5):
            net.add_node(i)
        for v, d in ((1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)):
            net.add_edge(0, v, d)
        net.remove_edge(2, 0)
        net.update_edge(3, 0, 30.0)  # keeps its place, as a dict value does
        assert list(net.neighbours(0)) == [(1, 1.0), (3, 30.0), (4, 4.0)]
        net.add_edge(2, 0, 20.0)  # re-added edges go last
        assert list(net.neighbours(0)) == [(1, 1.0), (3, 30.0), (4, 4.0), (2, 20.0)]
        assert list(net.neighbours(2)) == [(0, 20.0)]
        assert net.degree(0) == 4
        assert net.num_edges == 4
        assert list(net.edges()) == [(0, 1, 1.0), (0, 3, 30.0), (0, 4, 4.0), (0, 2, 20.0)]

    def test_neighbour_id_equal_to_a_stored_distance(self):
        """Only neighbour slots are searched: distances never match an id."""
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i)
        net.add_edge(0, 1, 2.0)  # 0's list: [1, 2.0]
        assert not net.has_edge(0, 2)
        with pytest.raises(NetworkError):
            net.edge_distance(0, 2)
        with pytest.raises(NetworkError):
            net.update_edge(0, 2, 5.0)
        with pytest.raises(NetworkError):
            net.remove_edge(0, 2)
        net.add_edge(0, 2, 1.0)  # 0's list: [1, 2.0, 2, 1.0]
        assert net.edge_distance(0, 2) == 1.0
        assert net.edge_distance(0, 1) == 2.0
        net.add_edge(0, 3, 3.0)
        net.remove_edge(0, 2)
        assert list(net.neighbours(0)) == [(1, 2.0), (3, 3.0)]
        assert not net.has_edge(0, 2) and not net.has_edge(2, 0)

    def test_drain_edges_yields_edges_order_and_empties(self, triangle):
        expected = list(triangle.edges())
        assert list(triangle.drain_edges()) == expected
        assert triangle.num_nodes == 0
        assert triangle.num_edges == 0
