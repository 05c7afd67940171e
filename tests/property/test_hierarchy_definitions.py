"""Property: the Rnet hierarchy matches Definitions 1 and 4 by brute force.

The hierarchy stores one edge -> leaf map and derives every Rnet's edge
and node sets from it; border sets are kept.  Here an independent model
tracks each edge's leaf, rebuilds ``E_R`` bottom-up from the tree, and
derives ``N_R``, ``B_R`` (Definition 1), ``rnets_containing`` (a
depth-first walk over the model's node sets, stable-sorted by level),
``interior_rnet``, ``border_roots`` and the leaf a new edge joins.  Small
parts and random depths leave leaves at several levels, so a node can
touch leaves at different depths; every check runs after the build and
after each step of a random run of edge additions and removals.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rnet import Rnet, RnetHierarchy
from repro.graph.network import EdgeKey, RoadNetwork, edge_key
from repro.partition.hierarchy import build_partition_tree
from tests.conftest import random_connected_network


class Model:
    """Definitions 1 and 4 computed from scratch off a tracked leaf map."""

    def __init__(self, network: RoadNetwork, hierarchy: RnetHierarchy) -> None:
        self.network = network
        self.hierarchy = hierarchy
        self.leaf_of: Dict[EdgeKey, int] = {}

    def derive(self) -> None:
        rnets = list(self.hierarchy.rnets())
        self.children = {r.rnet_id: list(r.children) for r in rnets}
        self.level = {r.rnet_id: r.level for r in rnets}
        self.root = next(r.rnet_id for r in rnets if r.is_root)
        self.edges: Dict[int, Set[EdgeKey]] = {}

        def collect(rnet_id: int) -> Set[EdgeKey]:
            own = {k for k, leaf in self.leaf_of.items() if leaf == rnet_id}
            for child in self.children[rnet_id]:
                own |= collect(child)
            self.edges[rnet_id] = own
            return own

        collect(self.root)
        self.nodes = {
            rid: {n for edge in edges for n in edge}
            for rid, edges in self.edges.items()
        }
        self.border = {
            rid: {
                node
                for node in self.nodes[rid]
                if any(
                    edge_key(node, nbr) not in self.edges[rid]
                    for nbr, _ in self.network.neighbours(node)
                )
            }
            for rid in self.edges
        }

    def containing(self, node: int) -> List[int]:
        found = []
        stack = [self.root]
        while stack:
            rid = stack.pop()
            if node in self.nodes[rid]:
                found.append(rid)
                stack.extend(self.children[rid])
        found.sort(key=self.level.__getitem__)
        return found

    def interior(self, node: int) -> int:
        current = self.root
        while True:
            holders = [c for c in self.children[current] if node in self.nodes[c]]
            if len(holders) != 1 or node in self.border[holders[0]]:
                return current
            current = holders[0]

    def border_roots(self, node: int) -> List[int]:
        return sorted(
            c for c in self.children[self.interior(node)] if node in self.nodes[c]
        )

    def default_leaf(self, u: int, v: int) -> int:
        for node in (u, v):
            for rid in reversed(self.containing(node)):
                if not self.children[rid]:
                    return rid
        raise AssertionError("no leaf holds either endpoint")


def ids(rnets: List[Rnet]) -> List[int]:
    return [r.rnet_id for r in rnets]


def check(model: Model) -> None:
    hierarchy = model.hierarchy
    hierarchy.validate()
    model.derive()
    for rnet in hierarchy.rnets():
        rid = rnet.rnet_id
        assert rnet.border == model.border[rid], rid
        assert rnet.edges == model.edges[rid], rid
        assert rnet.nodes == model.nodes[rid], rid
    assert {edge_key(u, v) for u, v, _ in model.network.edges()} == set(model.leaf_of)
    for (u, v), leaf_id in model.leaf_of.items():
        assert hierarchy.leaf_of_edge(u, v).rnet_id == leaf_id
    leaves = [rid for rid, children in model.children.items() if not children]
    for node in model.network.node_ids():
        assert ids(hierarchy.rnets_containing(node)) == model.containing(node)
        assert hierarchy.containing_ids(node) == set(model.containing(node))
        assert hierarchy.interior_rnet(node).rnet_id == model.interior(node)
        assert ids(hierarchy.border_roots(node)) == model.border_roots(node)
        for leaf_id in leaves:
            assert hierarchy.leaf_neighbours(node, leaf_id) == [
                (nbr, d)
                for nbr, d in model.network.neighbours(node)
                if model.leaf_of[edge_key(node, nbr)] == leaf_id
            ]


def build(seed: int):
    rnd = random.Random(seed)
    network = random_connected_network(
        rnd, rnd.randint(8, 40), rnd.randint(0, 25)
    )
    tree = build_partition_tree(
        network,
        levels=rnd.randint(1, 4),
        fanout=rnd.choice((2, 4)),
        min_edges=rnd.randint(2, 8),
    )
    hierarchy = RnetHierarchy(network, tree)
    model = Model(network, hierarchy)
    for leaf in tree.leaves():
        for key in leaf.edges:
            model.leaf_of[key] = leaf.part_id
    return rnd, network, hierarchy, model


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_build_and_edge_churn_match_the_definitions(seed):
    rnd, network, hierarchy, model = build(seed)
    check(model)
    next_node = max(network.node_ids()) + 1
    for _ in range(14):
        nodes = sorted(network.node_ids())
        if rnd.random() < 0.45 and network.num_edges > 1:
            u, v, _ = rnd.choice(sorted(network.edges()))
            network.remove_edge(u, v)
            left = hierarchy.remove_edge(u, v)
            assert left.rnet_id == model.leaf_of.pop(edge_key(u, v))
        else:
            u = rnd.choice(nodes)
            if rnd.random() < 0.15:
                v = next_node
                next_node += 1
                network.add_node(v, rnd.uniform(0, 100), rnd.uniform(0, 100))
            else:
                v = rnd.choice(nodes)
                if u == v or network.has_edge(u, v):
                    continue
            network.add_edge(u, v, rnd.uniform(0.1, 10.0))
            model.derive()
            if model.containing(u) or model.containing(v):
                expected = model.default_leaf(u, v)
                if rnd.random() < 0.25:
                    expected = rnd.choice(
                        [r.rnet_id for r in hierarchy.leaves()]
                    )
                    joined = hierarchy.add_edge(u, v, expected)
                else:
                    joined = hierarchy.add_edge(u, v)
            else:
                # Both endpoints are on no edge: only an explicit leaf works.
                expected = rnd.choice([r.rnet_id for r in hierarchy.leaves()])
                joined = hierarchy.add_edge(u, v, expected)
            assert joined.rnet_id == expected
            model.leaf_of[edge_key(u, v)] = expected
        check(model)


def test_trees_reach_unbalanced_shapes():
    """The seeds above do reach a node touching leaves at two depths."""
    for seed in range(200):
        _, network, hierarchy, _ = build(seed)
        for node in network.node_ids():
            depths = {
                hierarchy.leaf_of_edge(node, nbr).level
                for nbr, _ in network.neighbours(node)
            }
            if len(depths) > 1:
                return
    raise AssertionError("no unbalanced tree with a mixed-depth node")
