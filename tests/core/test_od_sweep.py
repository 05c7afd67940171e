"""OD matrices on the Route Overlay: the target-masked object sweep.

An ``ODMatrixQuery`` row is one object sweep whose "objects" are the
query's targets: it descends only the Rnets holding a target as an
interior node and crosses the rest on shortcuts.  Three guarantees:

* **Oracle** — every cell is plain Dijkstra's distance within the 1e-6
  tolerance the kNN oracle applies (pre-summed shortcut weights may
  change the last digits), ``inf`` exactly where unreachable;
* **Identity** — charged == frozen byte-for-byte with whole-SearchStats
  parity on every backend, an mmap-loaded snapshot and a process shard,
  and a patched or recompiled snapshot stays identical to a fresh one;
* **Shapes** — border and interior targets, many targets in one leaf,
  duplicates, ``source == target`` and disconnected components.

Like ``test_frozen_backends`` this module runs without numpy (the
no-numpy CI leg executes it): networks come from
:func:`tests.conftest.random_connected_network` and objects are placed
by hand.
"""

import os
import random

import pytest

from repro.core.framework import ROAD
from repro.core.frozen_backends import installed_backends, shared_memory_available
from repro.core.search import SearchStats, TargetSet
from repro.core.serialize import load_snapshot, save_snapshot
from repro.eval.metrics import snapshot_divergences
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import ODMatrixEntry, ODMatrixQuery
from repro.serving.process_pool import ProcessReplicaPool
from repro.serving.replicas import execute_batch
from repro.serving.wire import decode_result, encode_result
from tests.conftest import random_connected_network
from tests.oracle import assert_od_matches_dijkstra


def _objects(rnd, network, count=8):
    objects = ObjectSet()
    edges = sorted((u, v) for u, v, _ in network.edges())
    for object_id in range(count):
        u, v = edges[rnd.randrange(len(edges))]
        delta = rnd.uniform(0.0, network.edge_distance(u, v))
        objects.add(SpatialObject(object_id, (u, v), delta, {"type": "a"}))
    return objects


def _build(seed, nodes=70, extra=25, levels=3):
    rnd = random.Random(seed)
    network = random_connected_network(rnd, nodes, extra)
    road = ROAD.build(network, levels=levels, fanout=4)
    road.attach_objects(_objects(rnd, network))
    return network, road


@pytest.fixture(scope="module")
def built():
    return _build(11)


def _matrices(network, seed, count=6):
    rnd = random.Random(seed)
    nodes = sorted(network.node_ids())
    return [
        ODMatrixQuery(
            tuple(rnd.sample(nodes, rnd.randint(1, 3))),
            tuple(rnd.sample(nodes, rnd.randint(1, 4))),
        )
        for _ in range(count)
    ]


def _assert_identical(road, snapshot, queries):
    """Answers and whole SearchStats, charged vs ``snapshot``."""
    for query in queries:
        charged, frozen = SearchStats(), SearchStats()
        assert snapshot.execute(query, stats=frozen) == road.execute(
            query, stats=charged
        ), query
        assert frozen == charged, query


class TestOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_cells_match_dijkstra(self, seed):
        network, road = _build(seed, levels=seed % 3 + 1)
        frozen = road.freeze()
        for query in _matrices(network, seed):
            for engine in (road, frozen):
                cells = engine.execute(query)
                assert_od_matches_dijkstra(
                    network, query.sources, query.targets, cells
                )

    def test_border_and_interior_targets(self, built):
        network, road = built
        nodes = sorted(network.node_ids())
        border = [n for n in nodes if road.overlay.stored_tree(n).roots]
        interior = [n for n in nodes if not road.overlay.stored_tree(n).roots]
        assert border and interior
        targets = (border[0], interior[0], border[-1], interior[-1])
        sources = (nodes[0], nodes[len(nodes) // 2])
        query = ODMatrixQuery(sources, targets)
        stats = SearchStats()
        assert_od_matches_dijkstra(
            network, sources, targets, road.execute(query, stats=stats)
        )
        assert stats.rnets_bypassed and stats.shortcuts_taken
        _assert_identical(road, road.freeze(), [query])
        # A border target leaves the Rnets it borders out of the mask:
        # the sweep crosses them on shortcuts that end at the target.
        goal = TargetSet(road.hierarchy, [border[0]])
        bordered = [
            rnet for rnet in road.hierarchy.rnets()
            if border[0] in rnet.border
        ]
        assert bordered
        assert not any(
            goal.rnet_may_contain(rnet.rnet_id, None) for rnet in bordered
        )
        home = road.hierarchy.interior_rnet(border[0])
        assert goal.rnet_may_contain(home.rnet_id, None)

    def test_several_targets_in_one_leaf(self, built):
        network, road = built
        leaf = max(road.hierarchy.leaves(), key=lambda rnet: len(rnet.nodes))
        targets = tuple(sorted(leaf.nodes))[:5]
        assert len(targets) >= 3
        sources = (min(network.node_ids()), max(network.node_ids()))
        query = ODMatrixQuery(sources, targets)
        assert_od_matches_dijkstra(
            network, sources, targets, road.execute(query)
        )
        _assert_identical(road, road.freeze(), [query])


class TestIdentity:
    def test_every_backend_matches_charged(self, built):
        network, road = built
        queries = _matrices(network, 3)
        for backend in installed_backends():
            _assert_identical(road, road.freeze(backend=backend), queries)

    def test_mmap_snapshot_matches_charged(self, built, tmp_path):
        network, road = built
        path = os.fspath(tmp_path / "od.snapshot")
        save_snapshot(road.freeze(), path)
        loaded = load_snapshot(path)
        try:
            assert loaded.backend == "mmap"
            _assert_identical(road, loaded, _matrices(network, 4))
        finally:
            loaded.close()

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="host has no POSIX shared memory (/dev/shm)",
    )
    def test_process_shard_matches_charged(self, built):
        network, road = built
        queries = _matrices(network, 5)
        pool = ProcessReplicaPool(road.freeze(backend="shm"), workers=1)
        try:
            got = pool.submit(queries, "objects", footprints=True).result(
                timeout=60
            )
        finally:
            pool.close()
        # Answers plus each query's footprint (visited nodes and Rnets).
        assert got == execute_batch(road, queries, "objects", True)

    def test_home_slots_are_the_hierarchys_interior_chains(self):
        network, road = _build(5)
        frozen = road.freeze()
        self._assert_chains(road, frozen)
        u, v = self._new_edge(network)
        report = road.add_edge(u, v, 1.5)
        assert frozen.apply(report) == "recompiled"
        self._assert_chains(road, frozen)

    @staticmethod
    def _assert_chains(road, frozen):
        """Walking home_slot up slot_parent visits exactly the compiled
        Rnets that hold the node as an interior node."""
        slots = frozen._rnet_index
        for node in road.network.node_ids():
            chain = []
            slot = frozen._home_slot[frozen._index[node]]
            while slot >= 0:
                chain.append(slot)
                slot = frozen._slot_parent[slot]
            want = [
                slots[rnet.rnet_id]
                for rnet in road.hierarchy.ancestors(
                    road.hierarchy.interior_rnet(node).rnet_id
                )
                if rnet.rnet_id in slots
            ]
            assert chain == want, node

    @staticmethod
    def _new_edge(network):
        nodes = sorted(network.node_ids())
        return next(
            (u, v)
            for u in nodes
            for v in reversed(nodes)
            if u != v and not network.has_edge(u, v)
        )

    def test_no_divergence_after_reweighs_and_add_edge(self):
        network, road = _build(7)
        snapshots = {name: road.freeze(backend=name) for name in installed_backends()}
        edges = sorted((u, v) for u, v, _ in network.edges())
        rnd = random.Random(7)
        for _ in range(4):
            u, v = edges[rnd.randrange(len(edges))]
            report = road.update_edge_distance(
                u, v, network.edge_distance(u, v) * rnd.choice([0.2, 3.0])
            )
            for frozen in snapshots.values():
                assert frozen.apply(report) == "patched"
        self._assert_fresh(road, snapshots, rnd)
        u, v = self._new_edge(network)
        report = road.add_edge(u, v, 0.7)
        for frozen in snapshots.values():
            assert frozen.apply(report) == "recompiled"
        self._assert_fresh(road, snapshots, rnd)

    @staticmethod
    def _assert_fresh(road, snapshots, rnd):
        fresh = road.freeze()
        queries = _matrices(road.network, rnd.randrange(1 << 20))
        for frozen in snapshots.values():
            assert snapshot_divergences(rnd, frozen, fresh, probes=4) == []
            assert list(frozen._home_slot) == list(fresh._home_slot)
            assert list(frozen._slot_parent) == list(fresh._slot_parent)
            _assert_identical(road, frozen, queries)


class TestShapes:
    def test_duplicates_share_one_sweep(self, built):
        network, road = built
        frozen = road.freeze()
        a, b, t, u = sorted(network.node_ids())[3:7]
        for engine in (road, frozen):
            repeated, once = SearchStats(), SearchStats()
            cells = engine.od_matrix([a, b, a], [t, u, t], stats=repeated)
            distinct = engine.od_matrix([a, b], [t, u], stats=once)
            by_pair = {(c.source, c.target): c.distance for c in distinct}
            assert cells == [
                ODMatrixEntry(s, x, by_pair[s, x])
                for s in (a, b, a)
                for x in (t, u, t)
            ]
            # One sweep per distinct source, one object per distinct target.
            assert repeated == once

    def test_source_equals_target(self, built):
        network, road = built
        node = sorted(network.node_ids())[9]
        query = ODMatrixQuery((node,), (node, node))
        for engine in (road, road.freeze()):
            assert engine.execute(query) == [
                ODMatrixEntry(node, node, 0.0),
                ODMatrixEntry(node, node, 0.0),
            ]
        _assert_identical(road, road.freeze(), [query])

    def test_unreachable_target_is_inf_and_null_on_the_wire(self):
        rnd = random.Random(2)
        network = random_connected_network(rnd, 24, 6)
        island = RoadNetwork()
        for node in network.node_ids():
            island.add_node(node, *network.coords(node))
        for u, v, distance in network.edges():
            island.add_edge(u, v, distance)
        for offset in range(6):  # a second component: a 6-node chain
            island.add_node(100 + offset, 200.0 + offset, 200.0)
            if offset:
                island.add_edge(99 + offset, 100 + offset, 1.0)
        road = ROAD.build(island, levels=2, fanout=4)
        road.attach_objects(_objects(rnd, island))
        query = ODMatrixQuery((0, 102), (5, 104, 100))
        cells = road.execute(query)
        assert_od_matches_dijkstra(island, query.sources, query.targets, cells)
        unreachable = [c for c in cells if c.distance == float("inf")]
        assert {(c.source, c.target) for c in unreachable} == {
            (0, 104), (0, 100), (102, 5)
        }
        _assert_identical(road, road.freeze(), [query])
        encoded = encode_result(cells)
        assert [row["distance"] is None for row in encoded] == [
            c in unreachable for c in cells
        ]
        assert decode_result(encoded) == cells
