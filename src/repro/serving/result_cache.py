"""Cross-request result cache with report-driven invalidation.

At the throughput the process-shard tier already reaches, the next 10x
is not executing queries faster — it is not executing them at all.
Road-network serving traffic repeats heavily (the same OD pairs, the
same kNN origins) over a mostly-static network, so a result cache in
front of ``execute_many`` converts the repeat mass into dictionary
lookups.  A cache that can serve stale answers is worse than no cache,
which is why invalidation here is *report-driven* rather than
flush-everything:

* Every entry records the **footprint** its answer was computed from,
  as :class:`~repro.core.search.SearchStats` reports it: every node the
  sweep pushed (settled, still queued, or popped beyond its bound)
  united with the query's own nodes, and the Rnets it examined, split
  into those it bypassed and those it descended — each a sorted tuple,
  built once by the replica that executed the miss.
* Every :class:`~repro.core.maintenance.MaintenanceReport` names the
  edge it concerns, the Rnets whose shortcuts it changed
  (``dirty_rnets``) and, for object churn, the one directory it touched
  and the chain Rnets whose pruning answer can now differ
  (``mask_rnets``).  :meth:`ResultCache.invalidate_report` scans the
  entries of the affected directories and evicts exactly those the
  write could change (the rule is spelled out there).
* Structural reports (edge add/remove, border promotions) and re-freezes
  (attach/detach, replica rebuild) invalidate the affected scope
  wholesale — identity sets do not bound a shortcut-graph rebuild.

Cost model: a write pays O(entries in scope), a read pays nothing for
upkeep.  There is deliberately no node -> entries index: keeping one in
step cost ~380 dict-of-set updates per populate (and as many again per
eviction, under the lock) to save a scan that, at the default budget, is
cheaper than the unlinking it triggered.  Measured on the full CA
replica over 2,048 kNN / range footprints and ten real reweighs (2-vCPU
Xeon, CPython 3.11.7): a report's scan takes 2.3–3.5 ms, 1–1.7 us per
entry — a binary search per changed Rnet and per endpoint, most node
probes ended by a range test.  With the Rnets held as frozensets it took
1.5–2.1 ms on the same box, but sorted tuples hold the Rnets in a
tenth of the memory: 24 examined Rnets take 271 B per entry against
3,066 B, 5.6 MiB over 2,048 entries.  A populate costs 5 us per entry.
Writes are about 1 in 100 operations; revisit if ``cache_budget``
grows 10x+.

The rule is exact: an entry survives only a write that cannot change its
answer.  A sweep run after the write repeats the sweep run before it up
to their first difference (same pops, same pushes, same tie order), and
a difference needs one of

1. relaxing the changed edge or pushing the churned object, which needs
   ``u`` or ``v`` settled — so an endpoint is in the node footprint (an
   exactly-tied boundary node is in the frontier remnant, which the
   footprint includes);
2. taking a changed shortcut, which needs the reweighed Rnet bypassed —
   a descended Rnet's shortcuts are never read;
3. an examined Rnet whose may-contain flag flipped: one that turned on
   was bypassed before the write (an insert can only turn flags on), one
   that turned off was descended (a delete can only turn them off), and
   an attribute update can do either.  One query reads one mask, so an
   examined Rnet is bypassed or descended, never both.

An OD answer is a pure network product (the directory only routes its
admission), so object churn skips OD entries.  The byte-identity model
(``tests/property/test_byte_identity_model.py``) holds the rule to
byte-identical answers and every surviving entry to a fresh run's
footprint, and ``tests/serving/test_result_cache.py`` pins one case per
clause.

Populates are guarded by per-scope generation counters: a miss executed
against a pre-patch snapshot can only be *refused* (a lost populate),
never stored over a post-patch invalidation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.maintenance import MaintenanceReport
from repro.queries.types import (
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixQuery,
    RangeQuery,
    RouteKNNQuery,
    ServiceAreaQuery,
)
from repro.queries.writes import DeleteObject, InsertObject, UpdateObjectAttrs

#: ``(directory, query kind, canonicalized fields, canonical predicate)``.
CacheKey = Tuple[str, str, tuple, tuple]

#: ``(global generation, directory generation)`` captured at miss time.
Generation = Tuple[int, int]

#: One executed miss's ``(visited nodes, visited Rnets, bypassed Rnets)``,
#: each a sorted tuple without repeats (see :func:`node_footprint`).
Footprint = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]

#: The sides of an entry's examined Rnets an object report can reach, by
#: report kind: an insert can only turn an abstract's answer on (a
#: bypass could become a descent), a delete only off, an attribute
#: update either way.
_OBJECT_SIDES = {
    InsertObject.kind: ("bypassed",),
    DeleteObject.kind: ("descended",),
    UpdateObjectAttrs.kind: ("bypassed", "descended"),
}

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


def node_footprint(nodes: Iterable[int]) -> Tuple[int, ...]:
    """A visit set as the cache keeps it: sorted, without repeats.

    The only question the cache asks of it is whether it holds one of a
    report's few nodes or Rnets, which a binary search answers, and a
    tuple costs a sixth of the memory of a frozenset of the same ids.
    Nodes and Rnets are kept alike.
    """
    if not isinstance(nodes, (set, frozenset)):
        nodes = set(nodes)
    return tuple(sorted(nodes))


def _holds_any(nodes: Tuple[int, ...], wanted: Iterable[int]) -> bool:
    """Whether the sorted tuple ``nodes`` holds an id of ``wanted``.
    The range test first: a sweep's node ids tend to span a narrow band
    of the id space, so most probes end there."""
    if not nodes:
        return False
    low, high = nodes[0], nodes[-1]
    for node in wanted:
        if low <= node <= high and nodes[bisect_left(nodes, node)] == node:
            return True
    return False


class _Entry:
    """One cached answer plus the footprint that justifies evicting it.

    The Rnets the sweep examined are kept split into the ``bypassed``
    ones and the ``descended`` rest, each a sorted tuple.  An entry
    stored without the split counts every examined Rnet on both sides
    (one tuple, held twice).
    """

    __slots__ = ("answer", "nodes", "bypassed", "descended")

    def __init__(
        self,
        answer: list,
        nodes: Tuple[int, ...],
        rnets: Tuple[int, ...],
        bypassed: Optional[Tuple[int, ...]],
    ) -> None:
        self.answer = answer
        self.nodes = nodes
        if bypassed is None:
            self.bypassed = self.descended = rnets
        else:
            self.bypassed = bypassed
            skipped = set(bypassed)
            self.descended = tuple(r for r in rnets if r not in skipped)

    @property
    def rnets(self) -> Tuple[int, ...]:
        """Every examined Rnet, sorted."""
        if self.bypassed is self.descended:
            return self.bypassed
        return tuple(sorted(self.bypassed + self.descended))


class ResultCache:
    """LRU answer cache keyed by canonical query identity.

    Thread-safe: lookups/populates come from the admission flush (event
    loop or replica threads), invalidations from whichever thread runs
    maintenance.  Reads and populates are O(1) dictionary operations —
    an entry *is* its footprint, there is no index to maintain — and a
    maintenance report scans the entries of the directories it touches,
    about 1 us per entry scanned (see the module docstring's cost
    model).
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
        #: Global LRU order (oldest first) over every directory.
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        #: The same entries by directory: the scope a report scans.
        self._by_dir: Dict[str, Dict[CacheKey, _Entry]] = {}
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
        before handing it out, as with :meth:`lookup`).  The lock is
        taken and the counters bumped once for the whole batch; a query
        the cache cannot key is a miss position that counts as neither.
        """
        all_keys = [canonical_key(directory, query) for query in queries]
        hits: Dict[int, list] = {}
        miss_idx: List[int] = []
        keys: List[Optional[CacheKey]] = []
        with self._lock:
            entries = self._entries
            for index, key in enumerate(all_keys):
                entry = entries.get(key)  # None is never a stored key
                if entry is None:
                    miss_idx.append(index)
                    keys.append(key)
                else:
                    entries.move_to_end(key)
                    hits[index] = entry.answer
            self._bump("hits", len(hits))
            self._bump("misses", len(keys) - keys.count(None))
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
        bypassed: Optional[Iterable[int]] = None,
    ) -> bool:
        """Populate ``key`` with ``answer``; True if the entry went in.

        ``nodes`` / ``rnets`` / ``bypassed`` become the entry's
        footprint.  What :func:`~repro.serving.replicas.execute_batch`
        hands over — three :func:`node_footprint` tuples — is kept as it
        is; anything else is converted here, so a tuple must already be
        sorted and free of repeats.  Without
        ``bypassed`` every examined Rnet counts as both bypassed and
        descended, which evicts on a superset of the exact rule.  Refused
        when ``generation`` is stale (an invalidation landed while the
        miss executed — the answer may predate the patch) or when the
        node footprint is empty (nothing to invalidate on, so the entry
        could never be evicted by a report; this cannot happen for
        well-formed queries, whose own nodes join the footprint).
        """
        if key is None:
            return False
        entry = _Entry(
            answer,
            nodes if type(nodes) is tuple else node_footprint(nodes),
            rnets if type(rnets) is tuple else node_footprint(rnets),
            bypassed
            if bypassed is None or type(bypassed) is tuple
            else node_footprint(bypassed),
        )
        if not entry.nodes:
            return False
        directory = key[0]
        with self._lock:
            if generation != (
                self._gen_global,
                self._gen_dir.get(directory, 0),
            ):
                return False
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._by_dir.setdefault(directory, {})[key] = entry
            while len(self._entries) > self.budget:
                self._unlink(next(iter(self._entries)))
                self._bump("evictions")
            return True

    def populate(
        self,
        executed: Iterable[Tuple[Optional[CacheKey], object, list, Footprint]],
        generation: Generation,
    ) -> None:
        """Store each executed ``(key, query, answer, (nodes, rnets,
        bypassed))`` miss under its visit sets, the query's own nodes
        joining the node set."""
        for key, query, answer, (nodes, rnets, bypassed) in executed:
            if not nodes:
                # The executor reported no visit set (a baseline
                # without footprint support): caching it would make
                # the entry invisible to report invalidation.
                continue
            own = query_nodes(query)
            if not all(_holds_any(nodes, (node,)) for node in own):
                # Rare (a sweep settles its own origins first): only
                # then is the kernel's tuple copied to widen it.
                nodes = node_footprint(nodes + tuple(own))
            self.store(key, list(answer), nodes, rnets, generation, bypassed)

    # ------------------------------------------------------------------
    # Invalidation path
    # ------------------------------------------------------------------
    def invalidate_report(self, report: MaintenanceReport) -> int:
        """Evict every entry whose answer the report could change.

        Object reports carry their directory and scan only its entries;
        network reports (``directory is None``) dirty the shared graph,
        so every directory is scanned.  A non-structural report kills an
        entry iff the entry's nodes hold an endpoint of ``report.edge``
        (a report without an edge falls back to ``dirty_nodes``), or the
        Rnets the report changed meet the side of the entry's examined
        Rnets that reads them: for a reweigh, its ``dirty_rnets`` against
        the bypassed Rnets (shortcuts are read only there); for object
        churn, its ``mask_rnets`` against the side :data:`_OBJECT_SIDES`
        names.  An OD answer never reads the directory, so object churn
        skips OD entries.  Each scanned entry costs a binary search per
        endpoint and per changed Rnet, each mostly ended early by a
        range test.  Structural reports invalidate the affected scope
        wholesale: a shortcut-graph rebuild is not bounded by identity
        sets.  Returns the number of entries evicted; the populate
        generation advances regardless, so in-flight misses against the
        pre-patch snapshot are refused.
        """
        sides = _OBJECT_SIDES.get(report.kind)
        spared_kind = None if sides is None else ODMatrixQuery.__name__
        if sides is None:
            sides, changed = ("bypassed",), report.dirty_rnets
        else:
            changed = report.mask_rnets
        endpoints = report.dirty_nodes if report.edge is None else report.edge
        with self._lock:
            if report.directory is None:
                self._gen_global += 1
                directories = list(self._by_dir)
            else:
                self._gen_dir[report.directory] = (
                    self._gen_dir.get(report.directory, 0) + 1
                )
                directories = [report.directory]
            scopes = [self._by_dir.get(name, {}) for name in directories]
            if report.structural:
                victims = [key for scope in scopes for key in scope]
            else:
                victims = [
                    key
                    for scope in scopes
                    for key, entry in scope.items()
                    if key[1] != spared_kind
                    and (
                        any(
                            _holds_any(getattr(entry, side), changed)
                            for side in sides
                        )
                        or _holds_any(entry.nodes, endpoints)
                    )
                ]
            return self._invalidate(victims)

    def invalidate_directory(self, directory: str) -> int:
        """Wholesale eviction for one directory (attach/detach, replica
        rebuild) — the snapshot identity changed, not an
        enumerable dirty set."""
        with self._lock:
            self._gen_dir[directory] = self._gen_dir.get(directory, 0) + 1
            return self._invalidate(list(self._by_dir.get(directory, ())))

    def clear_all(self) -> int:
        """Evict everything (snapshot replacement / close)."""
        with self._lock:
            self._gen_global += 1
            dropped = len(self._entries)
            self._entries.clear()
            self._by_dir.clear()
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
        """Drop ``key`` from both maps — the only place an entry leaves
        one of them without the other (``clear_all`` empties both)."""
        del self._entries[key]
        scope = self._by_dir[key[0]]
        del scope[key]
        if not scope:
            del self._by_dir[key[0]]

    def _invalidate(self, victims: List[CacheKey]) -> int:
        for key in victims:
            self._unlink(key)
        self._bump("invalidations", len(victims))
        return len(victims)
