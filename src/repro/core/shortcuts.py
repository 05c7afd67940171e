"""Shortcuts: pre-computed border-to-border shortest paths per Rnet.

Definition 3: the shortcut ``S(b, b')`` between border nodes of an Rnet R
carries the shortest path between them and its distance.  Construction is
bottom-up per Lemma 2: finest Rnets run Dijkstra restricted to their own
edges; an upper-level Rnet runs Dijkstra over the *border graph* of its
children (children's border nodes linked by children's shortcuts), so a
level-i shortcut is represented as a composition of level-(i+1) shortcuts —
exactly the paper's ``S(n1, n3) = (S(n1, nd), S(nd, n3))`` example.

Why restricted distances stay exact at query time: every maximal within-R
segment of a *global* shortest path connects two border nodes of R and is,
by sub-path optimality, also the shortest within-R path between them
(the argument behind Lemma 3).  Hence Dijkstra over physical edges plus
shortcuts returns true network distances; the test suite checks this
equivalence exhaustively.

Lemma 4: a shortcut subsumed by a two-hop composition within the same Rnet
can be discarded; :func:`reduce_shortcuts` implements that storage
optimisation (ablation benches measure its effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.network import RoadNetwork
from repro.graph.shortest_path import dijkstra
from repro.core.rnet import Rnet, RnetHierarchy

#: Relative tolerance for distance comparisons (pure float arithmetic).
_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Shortcut:
    """A directed shortcut within one Rnet.

    ``via`` is the sequence of intermediate stops in the graph the shortcut
    was computed on: physical nodes for finest Rnets, child border nodes for
    upper levels (the recursive representation of Lemma 2).
    """

    source: int
    target: int
    rnet_id: int
    distance: float
    via: Tuple[int, ...] = ()


class ShortcutIndex:
    """All shortcuts of a hierarchy, indexed by Rnet and by (node, Rnet).

    The index keeps the *complete* border-to-border set per Rnet: upper
    levels and maintenance need exact all-pairs distances.  The Lemma-4
    reduced view (what the Route Overlay actually stores per node) is
    derived lazily per Rnet and invalidated on refresh.
    """

    def __init__(self, *, reduce: bool = True) -> None:
        self.reduce = reduce
        self._by_rnet: Dict[int, Dict[Tuple[int, int], Shortcut]] = {}
        self._reduced_cache: Dict[int, List[Shortcut]] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def put(self, shortcut: Shortcut) -> None:
        """Insert or replace a shortcut."""
        rnet_map = self._by_rnet.setdefault(shortcut.rnet_id, {})
        rnet_map[(shortcut.source, shortcut.target)] = shortcut
        self._reduced_cache.pop(shortcut.rnet_id, None)

    def replace_rnet(self, rnet_id: int, shortcuts: Iterable[Shortcut]) -> None:
        """Replace the whole shortcut set of one Rnet."""
        self._by_rnet[rnet_id] = {
            (s.source, s.target): s for s in shortcuts
        }
        self._reduced_cache.pop(rnet_id, None)

    def drop_rnet(self, rnet_id: int) -> None:
        """Forget an Rnet's shortcuts entirely."""
        self._by_rnet.pop(rnet_id, None)
        self._reduced_cache.pop(rnet_id, None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def of_rnet(self, rnet_id: int) -> List[Shortcut]:
        """The complete shortcut set of one Rnet."""
        return list(self._by_rnet.get(rnet_id, {}).values())

    def stored_of_rnet(self, rnet_id: int) -> List[Shortcut]:
        """The set the Route Overlay stores: Lemma-4 reduced if enabled."""
        if not self.reduce:
            return self.of_rnet(rnet_id)
        cached = self._reduced_cache.get(rnet_id)
        if cached is None:
            cached = reduce_shortcuts(self.of_rnet(rnet_id))
            self._reduced_cache[rnet_id] = cached
        return cached

    def from_node(self, node: int, rnet_id: int) -> List[Shortcut]:
        """Stored shortcuts leaving ``node`` within one Rnet."""
        return [s for s in self.stored_of_rnet(rnet_id) if s.source == node]

    def lookup(self, source: int, target: int, rnet_id: int) -> Optional[Shortcut]:
        """The complete-set shortcut (source -> target), if present."""
        return self._by_rnet.get(rnet_id, {}).get((source, target))

    def distances_of_rnet(self, rnet_id: int) -> Dict[Tuple[int, int], float]:
        """Pair -> distance map of the complete set (maintenance diffs)."""
        return {
            pair: s.distance
            for pair, s in self._by_rnet.get(rnet_id, {}).items()
        }

    def total(self, *, stored: bool = False) -> int:
        """Number of (directed) shortcuts, complete or as-stored."""
        if stored:
            return sum(
                len(self.stored_of_rnet(rid)) for rid in self._by_rnet
            )
        return sum(len(m) for m in self._by_rnet.values())

    def size_bytes(self, *, stored: bool = True) -> int:
        """Serialized size of the shortcut records (as stored by default)."""
        from repro.storage.codecs import shortcut_size

        if stored:
            return sum(
                shortcut_size(len(s.via))
                for rid in self._by_rnet
                for s in self.stored_of_rnet(rid)
            )
        return sum(
            shortcut_size(len(s.via))
            for m in self._by_rnet.values()
            for s in m.values()
        )


def build_shortcuts(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    *,
    reduce: bool = True,
) -> ShortcutIndex:
    """Compute every Rnet's shortcuts bottom-up (Lemma 2).

    ``reduce`` enables the Lemma-4 transitive reduction on the *stored*
    view (the paper's storage optimisation); the index itself always keeps
    the complete sets, which upper-level construction and maintenance need.
    The root Rnet has no border nodes and therefore no shortcuts.
    """
    index = ShortcutIndex(reduce=reduce)
    rnets = sorted(hierarchy.rnets(), key=lambda r: -r.level)  # deepest first
    for rnet in rnets:
        if rnet.is_root:
            continue
        shortcuts = compute_rnet_shortcuts(network, hierarchy, index, rnet)
        index.replace_rnet(rnet.rnet_id, shortcuts)
    return index


def compute_rnet_shortcuts(
    network: RoadNetwork,
    hierarchy: RnetHierarchy,
    index: ShortcutIndex,
    rnet: Rnet,
) -> List[Shortcut]:
    """All border-to-border shortcuts of one Rnet.

    Finest Rnets search their physical edges; internal Rnets search the
    border graph of their children, whose shortcuts must already be in
    ``index`` (build order is deepest level first).
    """
    if not rnet.border:
        return []
    if rnet.is_leaf:
        adjacency = _leaf_adjacency(hierarchy, rnet)
    else:
        adjacency = _border_graph_adjacency(hierarchy, index, rnet)
    shortcuts: List[Shortcut] = []
    borders = sorted(rnet.border)
    for source in borders:
        targets = set(borders) - {source}
        if not targets:
            continue
        dist, pred = dijkstra(adjacency, source, targets=targets)
        for target in targets:
            if target not in dist:
                continue  # not reachable within this Rnet
            via = _via_sequence(pred, source, target)
            shortcuts.append(
                Shortcut(source, target, rnet.rnet_id, dist[target], via)
            )
    return shortcuts


def _leaf_adjacency(hierarchy: RnetHierarchy, rnet: Rnet):
    """Adjacency restricted to a finest Rnet's own edges.

    A leaf runs one search per border node, so each node's in-leaf
    neighbours are looked up once and reused by the later searches.
    """
    leaf_id = rnet.rnet_id
    seen: Dict[int, List[Tuple[int, float]]] = {}

    def adjacency(node: int):
        found = seen.get(node)
        if found is None:
            found = seen[node] = hierarchy.leaf_neighbours(node, leaf_id)
        return found

    return adjacency


def _border_graph_adjacency(
    hierarchy: RnetHierarchy, index: ShortcutIndex, rnet: Rnet
):
    """Adjacency over child border nodes linked by child shortcuts."""
    out: Dict[int, List[Tuple[int, float]]] = {}
    for child_id in rnet.children:
        for shortcut in index.of_rnet(child_id):
            out.setdefault(shortcut.source, []).append(
                (shortcut.target, shortcut.distance)
            )

    def adjacency(node: int):
        return out.get(node, ())

    return adjacency


def _via_sequence(pred: Dict[int, int], source: int, target: int) -> Tuple[int, ...]:
    """Intermediate stops between source and target (exclusive)."""
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return tuple(path[1:-1])


def reduce_shortcuts(shortcuts: List[Shortcut]) -> List[Shortcut]:
    """Lemma 4: drop shortcuts equal to a two-hop composition in-Rnet.

    A shortcut ``S(b, b'')`` is discarded when some border node ``b'`` of
    the same Rnet satisfies ``|S(b, b')| + |S(b', b'')| = |S(b, b'')|``:
    a search reaching ``b`` still reaches ``b''`` transitively at the same
    distance.  Reachability and distances over the remaining set are
    preserved (checked property-based in the tests).
    """
    by_pair: Dict[Tuple[int, int], Shortcut] = {
        (s.source, s.target): s for s in shortcuts
    }
    by_source: Dict[int, List[Shortcut]] = {}
    for s in shortcuts:
        by_source.setdefault(s.source, []).append(s)

    kept: List[Shortcut] = []
    for s in shortcuts:
        subsumed = False
        for first_hop in by_source.get(s.source, ()):
            if first_hop.target in (s.source, s.target):
                continue
            second = by_pair.get((first_hop.target, s.target))
            if second is None:
                continue
            combined = first_hop.distance + second.distance
            if math.isclose(combined, s.distance, rel_tol=_REL_TOL) or (
                combined < s.distance
            ):
                subsumed = True
                break
        if not subsumed:
            kept.append(s)
    return kept
