"""Cross-request result cache with report-driven invalidation.

At the throughput the process-shard tier already reaches, the next 10x
is not executing queries faster — it is not executing them at all.
Road-network serving traffic repeats heavily (the same OD pairs, the
same kNN origins) over a mostly-static network, so a result cache in
front of ``execute_many`` converts the repeat mass into dictionary
lookups.  A cache that can serve stale answers is worse than no cache,
which is why invalidation here is *report-driven* rather than
flush-everything:

* Every entry records the **footprint** its answer touched — the node
  and Rnet visit sets from :class:`~repro.core.search.SearchStats`
  (settled nodes *plus* the frontier boundary; see
  ``_Frontier.pending_nodes``) united with the query's own nodes.
* Every :class:`~repro.core.maintenance.MaintenanceReport` carries the
  dirty identity sets of what it changed (``dirty_nodes`` /
  ``dirty_rnets``) and, for object churn, the one directory it touched.
  :meth:`ResultCache.invalidate_report` intersects the two through
  per-directory inverted indexes, evicting exactly the dirtied entries.
* Structural reports (edge add/remove, border promotions) and refreezes
  invalidate the affected scope wholesale — identity sets do not bound
  a shortcut-graph rebuild.

Correctness of the intersection test rests on two properties proven by
the churn-soak equivalence suite:

1. a changed edge always has an endpoint in some examined node set of
   every query it could affect (relaxing an edge requires popping an
   endpoint; an exactly-tied boundary node is in the frontier remnant,
   which the footprint includes), and
2. an object insert into a bypassed Rnet is caught by ``dirty_rnets``
   intersecting the examined-Rnet set (``ChoosePath`` recorded every
   Rnet entry it looked at, including the ones it bypassed).

Populates are guarded by per-scope generation counters: a miss executed
against a pre-patch snapshot can only be *refused* (a lost populate),
never stored over a post-patch invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.maintenance import MaintenanceReport
from repro.queries.types import (
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixQuery,
    RangeQuery,
    RouteKNNQuery,
    ServiceAreaQuery,
)

#: ``(directory, query kind, canonicalized fields, canonical predicate)``.
CacheKey = Tuple[str, str, tuple, tuple]

#: ``(global generation, directory generation)`` captured at miss time.
Generation = Tuple[int, int]

#: Distinguishes "no cached entry" from a cached empty answer.
MISS = object()

#: Per-type field canonicalizers, keyed by *exact* query class (a
#: subclass may override equality semantics, so it stays uncached until
#: registered here).  Canonicalization folds together queries that
#: provably return byte-identical answers and nothing more:
#:
#: * a ``RouteKNNQuery`` path collapses to its sorted seed *set* — the
#:   multi-source kernel seeds a single frontier (duplicates dropped)
#:   and returns the canonical (distance, id)-sorted cut, so seed order
#:   cannot show in the answer;
#: * ``ODMatrixQuery`` rows/columns stay verbatim: row order *is* the
#:   answer shape, so permuted sources must miss;
#: * ``AggregateKNNQuery`` nodes stay verbatim: sum/max/min aggregate
#:   over the multiset of per-node distances, so duplicated nodes are
#:   semantically significant.
_CANONICAL_FIELDS: Dict[type, Callable[[Any], tuple]] = {
    KNNQuery: lambda q: (q.node, q.k),
    RangeQuery: lambda q: (q.node, q.radius),
    AggregateKNNQuery: lambda q: (q.nodes, q.k, q.agg),
    ODMatrixQuery: lambda q: (q.sources, q.targets),
    ServiceAreaQuery: lambda q: (q.node, q.breaks),
    RouteKNNQuery: lambda q: (tuple(sorted(set(q.path))), q.k),
}

#: Per-type origin-node extractors (same exact-class keying).
_QUERY_NODES: Dict[type, Callable[[Any], Tuple[int, ...]]] = {
    KNNQuery: lambda q: (q.node,),
    RangeQuery: lambda q: (q.node,),
    AggregateKNNQuery: lambda q: q.nodes,
    ODMatrixQuery: lambda q: q.sources + q.targets,
    ServiceAreaQuery: lambda q: (q.node,),
    RouteKNNQuery: lambda q: q.path,
}


def canonical_key(directory: str, query: object) -> Optional[CacheKey]:
    """The cache key for ``query`` against ``directory``, or ``None``.

    Predicates are order-independent conjunctions, so permuted-but-equal
    predicates share a key; the per-kind field rules live in
    :data:`_CANONICAL_FIELDS`.  ``None`` marks a query class the cache
    does not know — the service executes it uncached rather than
    guessing at its equality contract.
    """
    fields_of = _CANONICAL_FIELDS.get(type(query))
    if fields_of is None:
        return None
    predicate = getattr(query, "predicate", None)
    pred_key: tuple = ()
    if predicate is not None:
        pred_key = tuple(sorted(predicate.required))
    return (directory, type(query).__name__, fields_of(query), pred_key)


def query_nodes(query: object) -> Tuple[int, ...]:
    """The query's own nodes — always part of its footprint.

    A query's answer trivially depends on its origin nodes even when a
    degenerate sweep settles nothing else (e.g. an isolated node).
    """
    nodes_of = _QUERY_NODES.get(type(query))
    return () if nodes_of is None else nodes_of(query)


class _Entry:
    """One cached answer plus the footprint that justifies evicting it."""

    __slots__ = ("answer", "nodes", "rnets")

    def __init__(
        self, answer: list, nodes: frozenset, rnets: frozenset
    ) -> None:
        self.answer = answer
        self.nodes = nodes
        self.rnets = rnets


class ResultCache:
    """LRU answer cache keyed by canonical query identity.

    Thread-safe: lookups/populates come from the admission flush (event
    loop or replica threads), invalidations from whichever thread runs
    maintenance.  All operations are O(touched entries), never O(cache).
    """

    def __init__(
        self,
        budget: int = 2048,
        *,
        counters: Optional[Dict[str, object]] = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"cache budget must be >= 1, got {budget}")
        self.budget = budget
        #: Optional external mirrors (``/metrics`` Counter objects): any
        #: mapping of {"hits","misses","evictions","invalidations"} to
        #: objects with ``inc(amount)``.
        self._mirrors = counters or {}
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        # Per-directory inverted indexes: identity -> keys touching it.
        self._by_node: Dict[str, Dict[int, Set[CacheKey]]] = {}
        self._by_rnet: Dict[str, Dict[int, Set[CacheKey]]] = {}
        self._dir_keys: Dict[str, Set[CacheKey]] = {}
        # Populate guards (see `generation`).
        self._gen_global = 0
        self._gen_dir: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup(self, key: Optional[CacheKey]) -> object:
        """The cached answer for ``key``, or the :data:`MISS` sentinel.

        A hit refreshes the entry's LRU position.  Callers must copy the
        returned list before handing it to a consumer (`_deliver` treats
        per-future lists as owned).
        """
        if key is None:
            return MISS
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._bump("misses")
                return MISS
            self._entries.move_to_end(key)
            self._bump("hits")
            return entry.answer

    def split(
        self, directory: str, queries: Sequence[object]
    ) -> Tuple[Dict[int, list], Sequence[int], List[Optional[CacheKey]]]:
        """One batch's cache-split: (hits, miss positions, miss keys).

        ``hits`` maps a query's position to its cached answer (copy it
        before handing it out, as with :meth:`lookup`).
        """
        hits: Dict[int, list] = {}
        miss_idx: List[int] = []
        keys: List[Optional[CacheKey]] = []
        for index, query in enumerate(queries):
            key = canonical_key(directory, query)
            answer = self.lookup(key)
            if answer is MISS:
                miss_idx.append(index)
                keys.append(key)
            else:
                hits[index] = answer  # type: ignore[assignment]
        return hits, miss_idx, keys

    def generation(self, directory: str) -> Generation:
        """The populate guard to capture *before* executing a miss.

        Network-wide maintenance bumps the global component; directory
        maintenance bumps only that directory's, so churn on one
        directory does not refuse populates for another.
        """
        with self._lock:
            return (self._gen_global, self._gen_dir.get(directory, 0))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def store(
        self,
        key: Optional[CacheKey],
        answer: list,
        nodes: Iterable[int],
        rnets: Iterable[int],
        generation: Generation,
    ) -> bool:
        """Populate ``key`` with ``answer``; True if the entry went in.

        Refused when ``generation`` is stale (an invalidation landed
        while the miss executed — the answer may predate the patch) or
        when the node footprint is empty (nothing to invalidate on, so
        the entry could never be evicted by a report; this cannot happen
        for well-formed queries, whose own nodes join the footprint).
        """
        if key is None:
            return False
        node_set = frozenset(nodes)
        rnet_set = frozenset(rnets)
        if not node_set:
            return False
        directory = key[0]
        with self._lock:
            if generation != (
                self._gen_global,
                self._gen_dir.get(directory, 0),
            ):
                return False
            if key in self._entries:
                self._unlink(key)
            self._entries[key] = _Entry(answer, node_set, rnet_set)
            self._entries.move_to_end(key)
            self._dir_keys.setdefault(directory, set()).add(key)
            by_node = self._by_node.setdefault(directory, {})
            for node in node_set:
                by_node.setdefault(node, set()).add(key)
            by_rnet = self._by_rnet.setdefault(directory, {})
            for rnet in rnet_set:
                by_rnet.setdefault(rnet, set()).add(key)
            while len(self._entries) > self.budget:
                oldest = next(iter(self._entries))
                self._unlink(oldest)
                self._bump("evictions")
            return True

    def populate(
        self,
        executed: Iterable[Tuple[Optional[CacheKey], object, list, Tuple[set, set]]],
        generation: Generation,
    ) -> None:
        """Store each executed ``(key, query, answer, (nodes, rnets))`` miss
        under its visit set united with the query's own nodes."""
        for key, query, answer, (nodes, rnets) in executed:
            if not nodes:
                # The executor reported no visit set (a baseline
                # without footprint support): caching it would make
                # the entry invisible to report invalidation.
                continue
            footprint = set(nodes)
            footprint.update(query_nodes(query))
            self.store(key, list(answer), footprint, rnets, generation)

    # ------------------------------------------------------------------
    # Invalidation path
    # ------------------------------------------------------------------
    def invalidate_report(self, report: MaintenanceReport) -> int:
        """Evict every entry whose footprint the report dirtied.

        Object reports carry their directory and touch only its entries;
        network reports (``directory is None``) dirty the shared graph,
        so every directory's index is consulted.  Structural reports
        invalidate the affected scope wholesale: a shortcut-graph
        rebuild is not bounded by identity sets.  Returns the number of
        entries evicted; the populate generation advances regardless, so
        in-flight misses against the pre-patch snapshot are refused.
        """
        with self._lock:
            if report.directory is None:
                self._gen_global += 1
                directories = list(self._dir_keys)
            else:
                self._gen_dir[report.directory] = (
                    self._gen_dir.get(report.directory, 0) + 1
                )
                directories = [report.directory]
            if report.structural:
                dropped = sum(
                    self._drop_directory(name) for name in directories
                )
                self._bump("invalidations", dropped)
                return dropped
            victims: Set[CacheKey] = set()
            for name in directories:
                by_node = self._by_node.get(name)
                if by_node:
                    for node in report.dirty_nodes:
                        victims.update(by_node.get(node, ()))
                by_rnet = self._by_rnet.get(name)
                if by_rnet:
                    for rnet in report.dirty_rnets:
                        victims.update(by_rnet.get(rnet, ()))
            for key in victims:
                self._unlink(key)
            self._bump("invalidations", len(victims))
            return len(victims)

    def invalidate_directory(self, directory: str) -> int:
        """Wholesale eviction for one directory (refreeze, attach/detach,
        replica rebuild) — the snapshot identity changed, not an
        enumerable dirty set."""
        with self._lock:
            self._gen_dir[directory] = self._gen_dir.get(directory, 0) + 1
            dropped = self._drop_directory(directory)
            self._bump("invalidations", dropped)
            return dropped

    def clear_all(self) -> int:
        """Evict everything (snapshot replacement / close)."""
        with self._lock:
            self._gen_global += 1
            dropped = len(self._entries)
            self._entries.clear()
            self._by_node.clear()
            self._by_rnet.clear()
            self._dir_keys.clear()
            self._bump("invalidations", dropped)
            return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counter snapshot (also surfaced via /metrics by the service)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "budget": self.budget,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        """Advance one counter in both surfaces (attribute + mirror)."""
        if not amount:
            return
        setattr(self, name, getattr(self, name) + amount)
        mirror = self._mirrors.get(name)
        if mirror is not None:
            mirror.inc(amount)  # type: ignore[attr-defined]

    def _unlink(self, key: CacheKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        directory = key[0]
        keys = self._dir_keys.get(directory)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._dir_keys[directory]
        by_node = self._by_node.get(directory)
        if by_node is not None:
            for node in entry.nodes:
                keys = by_node.get(node)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del by_node[node]
            if not by_node:
                del self._by_node[directory]
        by_rnet = self._by_rnet.get(directory)
        if by_rnet is not None:
            for rnet in entry.rnets:
                keys = by_rnet.get(rnet)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del by_rnet[rnet]
            if not by_rnet:
                del self._by_rnet[directory]

    def _drop_directory(self, directory: str) -> int:
        victims = list(self._dir_keys.get(directory, ()))
        for key in victims:
            self._unlink(key)
        return len(victims)
