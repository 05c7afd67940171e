"""The Rnet hierarchy's storage model, and byte identity of what it feeds.

The hierarchy keeps one edge -> leaf map, the tree, each Rnet's ancestor
chain and the border sets; E_R and N_R are derived on demand.  Two pinned
digests hold everything built on top of it (the compiled snapshot arrays
and the ``save_road`` file) to the bytes the per-level-set hierarchy
produced, on a stdlib-built network, fresh and after a fixed run of edge
additions and removals.
"""

from __future__ import annotations

import hashlib
import random

from repro import ROAD
from repro.core.rnet import Rnet, RnetHierarchy
from repro.core.serialize import save_road
from repro.graph.network import RoadNetwork
from repro.objects.model import ObjectSet, SpatialObject
from repro.partition.hierarchy import build_partition_tree
from tests.conftest import random_connected_network


def _pinned_road() -> ROAD:
    network = random_connected_network(random.Random(2009), 240, 120)
    # min_edges leaves some parts unsplit above the deepest level, so the
    # tree is unbalanced: a node can touch leaves at different depths.
    tree = build_partition_tree(network, levels=4, fanout=4, min_edges=6)
    road = ROAD.build(network, partition_tree=tree)
    rnd = random.Random(17)
    edges = sorted((u, v) for u, v, _ in network.edges())
    objects = ObjectSet(
        SpatialObject(
            oid,
            edge,
            rnd.uniform(0.0, network.edge_distance(*edge)),
            {"kind": rnd.choice(("cafe", "fuel"))},
        )
        for oid, edge in enumerate(rnd.sample(edges, 60))
    )
    road.attach_objects(objects)
    return road


def _churn(road: ROAD) -> None:
    """A fixed run of additions and removals, new nodes included."""
    network: RoadNetwork = road.network
    rnd = random.Random(5)
    hosting = {obj.edge for obj in road.directory().objects}
    added = []
    for _ in range(12):
        u, v = rnd.randrange(240), rnd.randrange(240)
        if u != v and not network.has_edge(u, v):
            road.add_edge(u, v, rnd.uniform(0.5, 8.0))
            added.append((u, v))
    road.add_edge(7, 1000, 3.0, coords={1000: (50.0, 50.0)})
    for u, v in added[::2]:
        road.remove_edge(u, v)
    free = sorted(
        (u, v)
        for u, v, _ in network.edges()
        if (min(u, v), max(u, v)) not in hosting
    )
    for u, v in rnd.sample(free, 6):
        road.remove_edge(u, v)


def _snapshot_digest(road: ROAD) -> str:
    parts = road.freeze().export_parts()
    digest = hashlib.sha256()
    for name in sorted(parts["arrays"]):
        digest.update(repr((name, list(parts["arrays"][name]))).encode())
    digest.update(repr((parts["node_ids"], parts["rnet_slots"])).encode())
    return digest.hexdigest()


def _file_digest(road: ROAD, path) -> str:
    save_road(road, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    def test_fresh_build(self, tmp_path):
        road = _pinned_road()
        assert _snapshot_digest(road) == SNAPSHOT_FRESH
        assert _file_digest(road, tmp_path / "road.bin") == FILE_FRESH

    def test_after_edge_churn(self, tmp_path):
        road = _pinned_road()
        _churn(road)
        road.hierarchy.validate()
        assert _snapshot_digest(road) == SNAPSHOT_CHURNED
        assert _file_digest(road, tmp_path / "road.bin") == FILE_CHURNED


def _entries(obj, seen) -> int:
    """Elements of every container reachable from ``obj`` (dict keys count
    once; the network and the Rnets' back-references are not walked)."""
    if id(obj) in seen or isinstance(obj, (RoadNetwork, RnetHierarchy)):
        return 0
    seen.add(id(obj))
    if isinstance(obj, Rnet):
        return sum(
            _entries(value, seen)
            for name, value in vars(obj).items()
            if name != "hierarchy"
        )
    if isinstance(obj, dict):
        return len(obj) + sum(_entries(value, seen) for value in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return len(obj) + sum(_entries(value, seen) for value in obj)
    return 0


class TestStorageShape:
    def test_no_rnet_holds_an_edge_or_node_container(self):
        hierarchy = _pinned_road().hierarchy
        for rnet in hierarchy.rnets():
            held = {
                name
                for name, value in vars(rnet).items()
                if isinstance(value, (set, frozenset, dict, list, tuple))
            }
            assert held == {"border", "children"}
            assert all(isinstance(child, int) for child in rnet.children)

    def test_containers_are_linear_in_the_network(self):
        """One entry per edge, the border sets, and O(1) per Rnet and level.

        Per-level edge sets would add ``levels`` entries per edge on top.
        """
        network = random_connected_network(random.Random(3), 3000, 1500)
        hierarchy = RnetHierarchy(
            network, build_partition_tree(network, levels=3, fanout=4)
        )
        rnets = list(hierarchy.rnets())
        borders = sum(len(r.border) for r in rnets)
        total = sum(
            _entries(value, set())
            for name, value in vars(hierarchy).items()
            if name != "network"
        )
        bookkeeping = total - network.num_edges - borders
        assert 0 <= bookkeeping <= 16 * len(rnets)
        assert 16 * len(rnets) < network.num_edges / 3

    def test_shortcut_trees_store_edges_once(self):
        """A non-border tree refers to the network's adjacency (Fig 6's
        single leaf) instead of holding a copy; no tree object, entry or
        shortcut carries a per-instance ``__dict__``."""
        road = _pinned_road()
        trees = dict(road.overlay.iter_trees())
        assert trees
        kinds = set()
        for node, tree in trees.items():
            kinds.add(tree.is_border)
            assert not hasattr(tree, "__dict__")
            if not tree.is_border:
                assert tree.roots == ()
                held = [
                    getattr(tree, name)
                    for name in type(tree).__slots__
                    if isinstance(
                        getattr(tree, name), (list, tuple, dict, set, frozenset)
                    )
                ]
                assert held == [()]  # only the shared empty roots
                assert list(tree.local_edges) == list(road.network.neighbours(node))
            stack = list(tree.roots)
            while stack:
                entry = stack.pop()
                assert not hasattr(entry, "__dict__")
                for shortcut in entry.shortcuts:
                    assert not hasattr(shortcut, "__dict__")
                stack.extend(entry.children)
        assert kinds == {True, False}
        roots = {id(t.roots) for t in trees.values() if not t.is_border}
        assert len(roots) == 1


SNAPSHOT_FRESH = (
    "d69360dc896eda293bc2d7bda53aeb5096cbbcc43919b989d48a86fc3f8f6f3f"
)
FILE_FRESH = (
    "ba4606d1f42f74a5b91cdaac8502319522ddc101eb7b04b7d425cb6d63ce328b"
)
SNAPSHOT_CHURNED = (
    "f715d80796e50e11062c530b3ff884e1ab7ab4b41b650179c2083341e7867272"
)
FILE_CHURNED = (
    "db098fce34f66824efcdac00ff5d090143151ddd4a5bd430fee5afbbc581af4f"
)
