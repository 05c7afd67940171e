"""Unit coverage for the cross-request result cache.

Four contract surfaces of :mod:`repro.serving.result_cache`:

* **key canonicalization** — permuted-but-equal predicates and RouteKNN
  seed sets share a key; ODMatrix row order and AggregateKNN node
  multisets are answer-significant, so permutations must miss;
* **LRU budget** — least-recently-*used* eviction order, with hits
  refreshing recency;
* **invalidation precision** — a report evicts exactly the entries it
  could change: those holding an endpoint of its edge, and those whose
  bypassed (reweigh, insert), descended (delete) or examined (attribute
  update) Rnets meet the Rnets it changed, scoped to the report's
  directory, with object churn sparing OD answers; one service-level
  case pins each clause; structural reports drop the scope wholesale;
  the populate generation refuses stale stores;
* **counter accuracy** — the attribute counters, ``stats()`` and the
  ``road_cache_*_total`` families on ``/metrics`` all tell the same
  story;
* **no leaks** — the LRU order and the per-directory scan scopes hold
  exactly the same entries after any interleaving of stores, evictions
  and invalidations.

The byte-identity model (``tests/property/test_byte_identity_model.py``)
holds the cache to never changing an answer; this file pins the
mechanism.
"""

import asyncio
import random

import pytest

from repro.core.frozen_backends import shared_memory_available
from repro.core.maintenance import MaintenanceReport
from repro.core.search import TargetSet
from repro.graph.generators import grid_network
from repro.graph.network import edge_key
from repro.graph.shortest_path import dijkstra
from repro.objects.model import SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import (
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixQuery,
    Predicate,
    RangeQuery,
    RouteKNNQuery,
    ServiceAreaQuery,
)
from repro.queries.writes import AddEdge
from repro.serving import RoadService, ServiceConfig
from repro.serving.result_cache import (
    MISS,
    ResultCache,
    canonical_key,
    node_footprint,
    query_nodes,
)
from tests.oracle import ARMS, build_arm

DIR = "objects"


def _store(cache, key, answer, nodes, rnets=(), bypassed=None):
    """Populate with a fresh (non-stale) generation for the key's scope."""
    return cache.store(
        key, answer, nodes, rnets, cache.generation(key[0]), bypassed
    )


class TestCanonicalKey:
    def test_permuted_predicates_share_a_key(self):
        # Predicate() stores `required` verbatim — only Predicate.of
        # sorts — so these are *unequal* dataclasses with equal meaning.
        forward = Predicate((("type", "cafe"), ("zone", "a")))
        backward = Predicate((("zone", "a"), ("type", "cafe")))
        assert forward != backward
        assert canonical_key(DIR, KNNQuery(3, 2, forward)) == canonical_key(
            DIR, KNNQuery(3, 2, backward)
        )

    def test_distinct_predicates_do_not_collide(self):
        assert canonical_key(
            DIR, KNNQuery(3, 2, Predicate.of(type="cafe"))
        ) != canonical_key(DIR, KNNQuery(3, 2, Predicate.of(type="fuel")))

    def test_route_knn_seed_set_collapses_order_and_duplicates(self):
        # The multi-source kernel seeds a frontier set: order and
        # duplicates cannot show in the answer.
        base = canonical_key(DIR, RouteKNNQuery((0, 1, 9), 2))
        assert canonical_key(DIR, RouteKNNQuery((9, 0, 1), 2)) == base
        assert canonical_key(DIR, RouteKNNQuery((1, 9, 0, 1, 9), 2)) == base
        assert canonical_key(DIR, RouteKNNQuery((0, 1), 2)) != base

    def test_od_matrix_row_order_is_answer_significant(self):
        base = canonical_key(DIR, ODMatrixQuery((0, 1), (2, 3)))
        assert canonical_key(DIR, ODMatrixQuery((1, 0), (2, 3))) != base
        assert canonical_key(DIR, ODMatrixQuery((0, 1), (3, 2))) != base

    def test_aggregate_nodes_are_multiset_significant(self):
        # sum/max/min aggregate over the per-node distance multiset:
        # a duplicated node doubles its weight under "sum".
        base = canonical_key(DIR, AggregateKNNQuery((0, 1), 2))
        assert canonical_key(DIR, AggregateKNNQuery((0, 0, 1), 2)) != base
        assert canonical_key(DIR, AggregateKNNQuery((1, 0), 2)) != base
        assert canonical_key(
            DIR, AggregateKNNQuery((0, 1), 2, agg="max")
        ) != base

    def test_query_kind_and_directory_scope_the_key(self):
        assert canonical_key(DIR, KNNQuery(0, 2)) != canonical_key(
            DIR, RouteKNNQuery((0,), 2)
        )
        assert canonical_key(DIR, KNNQuery(0, 2)) != canonical_key(
            "hotels", KNNQuery(0, 2)
        )

    def test_service_area_breaks_already_normalised(self):
        # ServiceAreaQuery.__post_init__ sorts breaks, so permuted break
        # lists are the *same* query and the same key.
        assert canonical_key(
            DIR, ServiceAreaQuery(0, (400.0, 150.0))
        ) == canonical_key(DIR, ServiceAreaQuery(0, (150.0, 400.0)))

    def test_unknown_query_class_is_uncacheable(self):
        assert canonical_key(DIR, object()) is None
        cache = ResultCache(budget=4)
        assert cache.lookup(None) is MISS
        # An uncacheable query is not a cache miss — it never reached it.
        assert cache.misses == 0

    @pytest.mark.parametrize(
        ("query", "nodes"),
        [
            (KNNQuery(7, 2), (7,)),
            (RangeQuery(7, 5.0), (7,)),
            (ServiceAreaQuery(7, (5.0,)), (7,)),
            (AggregateKNNQuery((3, 7), 1), (3, 7)),
            (ODMatrixQuery((1, 2), (3,)), (1, 2, 3)),
            (RouteKNNQuery((4, 5), 1), (4, 5)),
        ],
    )
    def test_query_nodes_covers_every_kind(self, query, nodes):
        assert query_nodes(query) == nodes

    def test_query_nodes_unknown_class_is_empty(self):
        assert query_nodes(object()) == ()


class TestLRUBudget:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            ResultCache(budget=0)

    def test_least_recently_used_is_evicted_first(self):
        cache = ResultCache(budget=2)
        a = canonical_key(DIR, KNNQuery(0, 1))
        b = canonical_key(DIR, KNNQuery(1, 1))
        c = canonical_key(DIR, KNNQuery(2, 1))
        assert _store(cache, a, ["a"], {0})
        assert _store(cache, b, ["b"], {1})
        assert cache.lookup(a) == ["a"]  # refresh a: b is now the LRU
        assert _store(cache, c, ["c"], {2})
        assert cache.lookup(b) is MISS
        assert cache.lookup(a) == ["a"]
        assert cache.lookup(c) == ["c"]
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_restore_replaces_in_place(self):
        cache = ResultCache(budget=2)
        key = canonical_key(DIR, KNNQuery(0, 1))
        assert _store(cache, key, ["old"], {0, 1})
        assert _store(cache, key, ["new"], {0})
        assert len(cache) == 1
        assert cache.lookup(key) == ["new"]
        # The replaced entry's old footprint is gone with it: dirtying
        # the node only the *old* footprint touched evicts nothing.
        assert cache.invalidate_report(
            MaintenanceReport(kind="update_edge_distance", dirty_nodes={1})
        ) == 0
        assert cache.lookup(key) == ["new"]

    def test_eviction_leaves_no_phantom_victim(self):
        cache = ResultCache(budget=1)
        a = canonical_key(DIR, KNNQuery(0, 1))
        b = canonical_key(DIR, KNNQuery(1, 1))
        assert _store(cache, a, ["a"], {0}, {10})
        assert _store(cache, b, ["b"], {1}, {11})  # evicts a
        # Dirtying a's footprint must not count a phantom invalidation.
        assert cache.invalidate_report(
            MaintenanceReport(kind="update_edge_distance", dirty_nodes={0},
                              dirty_rnets={10})
        ) == 0
        assert cache.lookup(b) == ["b"]


class TestPopulateGuards:
    def test_empty_node_footprint_is_refused(self):
        # An entry no report could ever reach must not be cached: it
        # would serve stale answers forever.
        cache = ResultCache(budget=4)
        key = canonical_key(DIR, KNNQuery(0, 1))
        assert not _store(cache, key, ["x"], set())
        assert len(cache) == 0

    def test_stale_generation_is_refused(self):
        cache = ResultCache(budget=4)
        key = canonical_key(DIR, KNNQuery(0, 1))
        generation = cache.generation(DIR)  # captured before the "miss"
        cache.invalidate_directory(DIR)  # a patch lands mid-execution
        assert not cache.store(key, ["stale"], {0}, (), generation)
        assert cache.lookup(key) is MISS

    def test_network_report_refuses_every_directory(self):
        cache = ResultCache(budget=4)
        generation = cache.generation("hotels")
        cache.invalidate_report(
            MaintenanceReport(kind="update_edge_distance", dirty_nodes={99})
        )
        key = canonical_key("hotels", KNNQuery(0, 1))
        assert not cache.store(key, ["stale"], {0}, (), generation)

    def test_directory_churn_does_not_refuse_other_directories(self):
        cache = ResultCache(budget=4)
        generation = cache.generation("hotels")
        cache.invalidate_directory(DIR)  # churn elsewhere
        key = canonical_key("hotels", KNNQuery(0, 1))
        assert cache.store(key, ["fresh"], {0}, (), generation)
        assert cache.lookup(key) == ["fresh"]


class TestInvalidationPrecision:
    def test_only_footprint_intersecting_entries_die(self):
        # A reweigh of edge (2, 3) refreshing Rnet 4, whose borders
        # (node 6 among them) fill ``dirty_nodes``: only the edge's
        # endpoints and the Rnets crossed on shortcuts can reach an answer.
        cache = ResultCache(budget=8)
        near = canonical_key(DIR, KNNQuery(1, 1))
        far = canonical_key(DIR, KNNQuery(6, 1))
        across = canonical_key(DIR, KNNQuery(9, 1))
        assert _store(cache, near, ["near"], {1, 2}, bypassed=())
        assert _store(cache, far, ["far"], {6, 7}, {4}, bypassed=())
        assert _store(cache, across, ["across"], {9}, {4}, bypassed={4})
        evicted = cache.invalidate_report(
            MaintenanceReport(
                kind="update_edge_distance",
                edge=(2, 3),
                dirty_nodes={2, 3, 6},
                dirty_rnets={4},
            )
        )
        assert evicted == 2
        assert cache.lookup(near) is MISS  # settled endpoint 2
        assert cache.lookup(across) is MISS  # crossed Rnet 4 on shortcuts
        # Settled a border of Rnet 4 and descended it: neither the edge
        # nor a shortcut of Rnet 4 entered its sweep.
        assert cache.lookup(far) == ["far"]
        assert cache.invalidations == 2

    def test_dirty_rnets_reach_bypassed_expansions(self):
        # ChoosePath may answer without settling any node of an Rnet it
        # bypassed — the bypassed-Rnet set is the only hook a report has.
        cache = ResultCache(budget=8)
        bypassing = canonical_key(DIR, KNNQuery(0, 1))
        descending = canonical_key(DIR, KNNQuery(1, 1))
        assert _store(cache, bypassing, ["x"], {0}, {3}, bypassed={3})
        assert _store(cache, descending, ["y"], {1}, {3}, bypassed=())
        insert = MaintenanceReport(
            kind="insert_object",
            directory=DIR,
            edge=(10, 11),
            dirty_nodes={10, 11},
            dirty_rnets={3, 5},
            mask_rnets={3},
        )
        assert cache.invalidate_report(insert) == 1
        assert cache.lookup(bypassing) is MISS
        assert cache.lookup(descending) == ["y"]  # an insert only turns on
        assert _store(cache, bypassing, ["x"], {0}, {3}, bypassed={3})
        reweigh = MaintenanceReport(
            kind="update_edge_distance", edge=(10, 11), dirty_rnets={3}
        )
        assert cache.invalidate_report(reweigh) == 1
        assert cache.lookup(bypassing) is MISS
        assert cache.lookup(descending) == ["y"]

    def test_object_reports_reach_the_side_their_flip_can_change(self):
        cache = ResultCache(budget=8)
        bypassing = canonical_key(DIR, KNNQuery(0, 1))
        descending = canonical_key(DIR, KNNQuery(1, 1))
        elsewhere = canonical_key(DIR, KNNQuery(2, 1))

        def fill():
            _store(cache, bypassing, ["b"], {0}, {3, 4}, bypassed={3})
            _store(cache, descending, ["d"], {1}, {3, 4}, bypassed={4})
            _store(cache, elsewhere, ["e"], {2}, {4}, bypassed={4})

        def survivors(kind):
            fill()
            cache.invalidate_report(
                MaintenanceReport(
                    kind=kind, directory=DIR, edge=(8, 9), mask_rnets={3}
                )
            )
            return set(cache._entries)

        assert survivors("insert_object") == {descending, elsewhere}
        assert survivors("delete_object") == {bypassing, elsewhere}
        assert survivors("update_object_attrs") == {elsewhere}

    def test_a_store_without_the_split_counts_both_sides(self):
        cache = ResultCache(budget=8)
        key = canonical_key(DIR, KNNQuery(0, 1))
        for kind in ("insert_object", "delete_object", "update_edge_distance"):
            assert _store(cache, key, ["x"], {0}, {3})
            report = MaintenanceReport(
                kind=kind, edge=(8, 9), dirty_rnets={3}, mask_rnets={3}
            )
            assert cache.invalidate_report(report) == 1, kind

    def test_object_reports_are_directory_scoped(self):
        cache = ResultCache(budget=8)
        objects_key = canonical_key(DIR, KNNQuery(5, 1))
        hotels_key = canonical_key("hotels", KNNQuery(5, 1))
        assert _store(cache, objects_key, ["o"], {5})
        assert _store(cache, hotels_key, ["h"], {5})
        cache.invalidate_report(
            MaintenanceReport(
                kind="insert_object", directory=DIR, dirty_nodes={5}
            )
        )
        assert cache.lookup(objects_key) is MISS
        assert cache.lookup(hotels_key) == ["h"]

    def test_network_reports_consult_every_directory(self):
        cache = ResultCache(budget=8)
        objects_key = canonical_key(DIR, KNNQuery(5, 1))
        hotels_key = canonical_key("hotels", KNNQuery(5, 1))
        assert _store(cache, objects_key, ["o"], {5})
        assert _store(cache, hotels_key, ["h"], {5})
        evicted = cache.invalidate_report(
            MaintenanceReport(kind="update_edge_distance", dirty_nodes={5})
        )
        assert evicted == 2
        assert cache.lookup(objects_key) is MISS
        assert cache.lookup(hotels_key) is MISS

    def test_structural_reports_drop_the_scope_wholesale(self):
        cache = ResultCache(budget=8)
        report = MaintenanceReport(kind="add_edge", dirty_nodes={99})
        assert report.structural
        keys = [canonical_key(DIR, KNNQuery(n, 1)) for n in range(3)]
        for n, key in enumerate(keys):
            assert _store(cache, key, [n], {n})  # none touch node 99
        assert cache.invalidate_report(report) == 3
        assert len(cache) == 0

    def test_invalidate_directory_and_clear_all(self):
        cache = ResultCache(budget=8)
        objects_key = canonical_key(DIR, KNNQuery(0, 1))
        hotels_key = canonical_key("hotels", KNNQuery(0, 1))
        assert _store(cache, objects_key, ["o"], {0})
        assert _store(cache, hotels_key, ["h"], {0})
        assert cache.invalidate_directory(DIR) == 1
        assert cache.lookup(hotels_key) == ["h"]
        assert cache.clear_all() == 1
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_stats_snapshot_shape(self):
        cache = ResultCache(budget=8)
        key = canonical_key(DIR, KNNQuery(0, 1))
        assert _store(cache, key, ["x"], {0})
        cache.lookup(key)
        cache.lookup(canonical_key(DIR, KNNQuery(9, 1)))
        assert cache.stats() == {
            "entries": 1, "budget": 8, "hits": 1, "misses": 1,
            "evictions": 0, "invalidations": 0,
        }


class TestBatchSplit:
    def test_split_counts_the_batch_once_and_skips_unkeyed(self):
        bumps = []

        class Mirror:
            def __init__(self, name):
                self.name = name

            def inc(self, amount):
                bumps.append((self.name, amount))

        cache = ResultCache(
            budget=8, counters={n: Mirror(n) for n in ("hits", "misses")}
        )
        hot, cold = KNNQuery(0, 1), KNNQuery(1, 1)
        assert _store(cache, canonical_key(DIR, hot), ["hot"], {0})
        unkeyed = object()
        hits, miss_idx, keys = cache.split(DIR, [hot, cold, unkeyed, hot, cold])
        assert hits == {0: ["hot"], 3: ["hot"]}
        assert list(miss_idx) == [1, 2, 4]
        assert keys == [canonical_key(DIR, cold), None, canonical_key(DIR, cold)]
        # One bump per counter per batch; the query the cache cannot key
        # executes uncached and counts as neither.
        assert bumps == [("hits", 2), ("misses", 2)]
        assert (cache.hits, cache.misses) == (2, 2)

    def test_split_hit_refreshes_lru_position(self):
        cache = ResultCache(budget=2)
        a, b, c = (KNNQuery(n, 1) for n in range(3))
        assert _store(cache, canonical_key(DIR, a), ["a"], {0})
        assert _store(cache, canonical_key(DIR, b), ["b"], {1})
        cache.split(DIR, [a])  # b is now the LRU
        assert _store(cache, canonical_key(DIR, c), ["c"], {2})
        hits, miss_idx, _ = cache.split(DIR, [a, b, c])
        assert (sorted(hits), list(miss_idx)) == ([0, 2], [1])


class TestFootprintOwnership:
    def test_populate_keeps_the_executors_tuples(self):
        """The kernel's sets are converted once (``execute_batch``), each
        to a sorted tuple; the cache stores those very objects, no copy
        under its lock, and keeps only the bypassed/descended split."""
        cache = ResultCache(budget=4)
        query = KNNQuery(3, 1)
        key = canonical_key(DIR, query)
        nodes, rnets = node_footprint({5, 3, 4}), node_footprint({11, 10})
        bypassed = node_footprint({10})
        cache.populate(
            [(key, query, ["x"], (nodes, rnets, bypassed))], cache.generation(DIR)
        )
        entry = cache._entries[key]
        assert entry.nodes is nodes and entry.bypassed is bypassed
        assert entry.descended == (11,) and entry.rnets == rnets

    def test_populate_widens_a_footprint_missing_the_origin(self):
        cache = ResultCache(budget=4)
        query = AggregateKNNQuery((3, 9), 1)
        key = canonical_key(DIR, query)
        cache.populate(
            [(key, query, ["x"], ((3, 4), frozenset(), frozenset()))],
            cache.generation(DIR),
        )
        assert cache._entries[key].nodes == (3, 4, 9)
        assert cache.invalidate_report(
            MaintenanceReport(kind="update_edge_distance", dirty_nodes={9})
        ) == 1

    def test_populate_skips_an_executor_without_footprints(self):
        cache = ResultCache(budget=4)
        query = KNNQuery(3, 1)
        cache.populate(
            [
                (
                    canonical_key(DIR, query),
                    query,
                    ["x"],
                    ((), frozenset(), frozenset()),
                )
            ],
            cache.generation(DIR),
        )
        assert len(cache) == 0


def _assert_maps_in_step(cache):
    """The cache's two containers hold exactly the same entries."""
    scoped = {
        key: entry
        for name, scope in cache._by_dir.items()
        for key, entry in scope.items()
    }
    assert scoped.keys() == cache._entries.keys()
    assert all(cache._entries[key] is entry for key, entry in scoped.items())
    assert all(key[0] == name for name, scope in cache._by_dir.items() for key in scope)
    assert all(cache._by_dir.values()), "an emptied directory scope was kept"
    assert len(cache) == len(cache._entries) <= cache.budget


class TestNoLeak:
    DIRECTORIES = ("objects", "hotels", "fuel")

    @pytest.mark.parametrize("seed", range(5))
    def test_random_interleaving_keeps_every_map_in_step(self, seed):
        rng = random.Random(seed)
        cache = ResultCache(budget=10)
        peak = 0
        for _ in range(600):
            draw = rng.random()
            directory = rng.choice(self.DIRECTORIES)
            if draw < 0.70:  # store (fresh, restore, or LRU-evicting)
                node = rng.randrange(40)
                key = canonical_key(directory, KNNQuery(node, rng.choice((1, 2))))
                nodes = {node, *rng.sample(range(40), rng.randrange(0, 6))}
                rnets = set(rng.sample(range(8), rng.randrange(0, 3)))
                assert _store(cache, key, [node], nodes, rnets)
            elif draw < 0.78:
                cache.lookup(canonical_key(directory, KNNQuery(rng.randrange(40), 1)))
            elif draw < 0.90:  # network or object report, sometimes structural
                cache.invalidate_report(
                    MaintenanceReport(
                        kind=rng.choice(("update_edge_distance", "add_edge", "insert_object")),
                        directory=rng.choice((None, directory)),
                        dirty_nodes=set(rng.sample(range(40), rng.randrange(0, 4))),
                        dirty_rnets=set(rng.sample(range(8), rng.randrange(0, 2))),
                    )
                )
            elif draw < 0.97:
                cache.invalidate_directory(directory)
            else:
                cache.clear_all()
            _assert_maps_in_step(cache)
            peak = max(peak, len(cache))
        # Every way out was taken: LRU eviction at a full budget, report
        # and wholesale invalidation.
        assert peak == cache.budget and cache.evictions > 0
        for directory in self.DIRECTORIES:
            cache.invalidate_directory(directory)
            _assert_maps_in_step(cache)
        assert len(cache) == 0
        assert not cache._entries and not cache._by_dir
        counted = cache.stats()
        assert counted["entries"] == 0 and counted["invalidations"] > 0

    def _two_directories(self):
        cache = ResultCache(budget=8)
        keys = {
            name: [canonical_key(name, KNNQuery(n, 1)) for n in (1, 5)]
            for name in ("objects", "hotels")
        }
        for name, (near, far) in keys.items():
            assert _store(cache, near, [name, "near"], {1, 2}, {7})
            assert _store(cache, far, [name, "far"], {5, 6}, {8})
        return cache, keys

    def test_network_report_scans_every_directory(self):
        cache, keys = self._two_directories()
        generations = {name: cache.generation(name) for name in keys}
        evicted = cache.invalidate_report(
            MaintenanceReport(kind="update_edge_distance", dirty_nodes={2}, dirty_rnets={9})
        )
        assert evicted == 2
        assert set(cache._entries) == {keys["objects"][1], keys["hotels"][1]}
        assert all(cache.generation(n) != generations[n] for n in keys)
        _assert_maps_in_step(cache)

    def test_object_report_scans_only_its_directory(self):
        cache, keys = self._two_directories()
        generations = {name: cache.generation(name) for name in keys}
        evicted = cache.invalidate_report(
            MaintenanceReport(
                kind="insert_object", directory="hotels", mask_rnets={7, 8}
            )
        )
        assert evicted == 2
        assert set(cache._entries) == set(keys["objects"])
        assert "hotels" not in cache._by_dir
        assert cache.generation("hotels") != generations["hotels"]
        assert cache.generation("objects") == generations["objects"]
        _assert_maps_in_step(cache)

    def test_structural_report_drops_every_directory_wholesale(self):
        cache, keys = self._two_directories()
        generations = {name: cache.generation(name) for name in keys}
        report = MaintenanceReport(kind="remove_edge", dirty_nodes={99})
        assert report.structural
        assert cache.invalidate_report(report) == 4
        assert len(cache) == 0 and not cache._by_dir
        assert all(cache.generation(n) != generations[n] for n in keys)

    def test_report_for_an_unknown_directory_only_bumps_its_generation(self):
        cache, keys = self._two_directories()
        before = cache.generation("fuel")
        assert cache.invalidate_report(
            MaintenanceReport(kind="insert_object", directory="fuel", dirty_nodes={1})
        ) == 0
        assert cache.generation("fuel") != before
        assert len(cache) == 4 and "fuel" not in cache._by_dir

    def test_wholesale_paths_bump_the_generation(self):
        cache, keys = self._two_directories()
        before = cache.generation("objects")
        cache.invalidate_directory("objects")
        mid = cache.generation("objects")
        cache.clear_all()
        assert before != mid != cache.generation("objects")
        assert not cache._entries and not cache._by_dir


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


def _reaches(report, key, entry):
    """The exact rule, restated: can ``report`` change ``entry``'s answer?"""
    if report.kind.endswith("_object") and key[1] == "ODMatrixQuery":
        return False
    if not set(report.edge).isdisjoint(entry.nodes):
        return True
    examined, bypassed = set(entry.rnets), set(entry.bypassed)
    if report.kind == "update_edge_distance":
        return bool(report.dirty_rnets & bypassed)
    if report.kind == "insert_object":
        return bool(report.mask_rnets & bypassed)
    if report.kind == "delete_object":
        return bool(report.mask_rnets & (examined - bypassed))
    return bool(report.mask_rnets & examined)


def submit_all(service, queries, repeats=1):
    """`repeats` sequential passes of per-query submits (no coalescing
    between passes — the second pass exercises the cross-flush cache)."""

    async def go():
        passes = []
        for _ in range(repeats):
            passes.append(
                await asyncio.gather(*(service.submit(q) for q in queries))
            )
        return passes

    return asyncio.run(go())


@pytest.fixture
def network():
    return grid_network(8, 8, seed=3)


@pytest.fixture
def objects(network):
    return place_uniform(
        network, 20, seed=8, attr_choices={"type": ["cafe", "fuel"]}
    )


@pytest.fixture
def cached_service(network, objects):
    service = RoadService.build(
        network.copy(), objects,
        config=ServiceConfig(
            levels=3, max_batch=64,
            result_cache=True, cache_budget=64,
        ),
    )
    yield service
    service.close()


QUERIES = [
    KNNQuery(0, 3, Predicate.of(type="cafe")),
    RangeQuery(9, 300.0),
    AggregateKNNQuery((0, 27), 2, agg="max"),
    ODMatrixQuery((0, 9), (27, 63)),
    ServiceAreaQuery(18, (150.0, 400.0)),
    RouteKNNQuery((0, 1, 9), 2, Predicate.of(type="fuel")),
]


class TestServiceConfigKnobs:
    def test_defaults_off(self):
        config = ServiceConfig()
        assert not config.result_cache
        assert config.cache_budget == 2048

    def test_cache_budget_validated(self):
        with pytest.raises(ValueError):
            ServiceConfig(result_cache=True, cache_budget=0)

    def test_from_env_reads_cache_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "17")
        config = ServiceConfig.from_env()
        assert config.result_cache and config.cache_budget == 17
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert not ServiceConfig.from_env().result_cache
        monkeypatch.setenv("REPRO_RESULT_CACHE", "maybe")
        with pytest.raises(ValueError):
            ServiceConfig.from_env()

    def test_uncached_service_reports_no_cache_stats(self, network, objects):
        service = RoadService.build(
            network.copy(), objects, config=ServiceConfig(levels=3)
        )
        try:
            assert "result_cache" not in service.stats()
        finally:
            service.close()


class TestCachedService:
    def test_warm_pass_hits_and_stays_byte_identical(self, cached_service):
        cold, warm = submit_all(cached_service, QUERIES, repeats=2)
        assert cold == warm == cached_service.run_many(QUERIES)
        counters = cached_service.stats()["result_cache"]
        assert counters["entries"] == len(QUERIES)
        assert counters["misses"] == len(QUERIES)
        assert counters["hits"] == len(QUERIES)

    def test_cached_answers_are_independent_lists(self, cached_service):
        query = KNNQuery(4, 3)
        (first,), (second,) = submit_all(
            cached_service, [query], repeats=2
        )
        assert first is not second
        expected = list(second)
        first.reverse()
        first.pop()
        assert second == expected
        # The cache-resident answer is intact too: a third pass still
        # serves the original.
        ((third,),) = submit_all(cached_service, [query])
        assert third == expected

    def test_coalescing_and_cache_compose(self, cached_service):
        # One flush of 8 identical queries: coalescing folds them to a
        # single cache probe (one miss), and the next flush hits.
        query = KNNQuery(12, 2)

        async def burst():
            return await asyncio.gather(
                *(cached_service.submit(query) for _ in range(8))
            )

        answers = asyncio.run(burst())
        assert all(a == answers[0] for a in answers)
        counters = cached_service.stats()["result_cache"]
        assert (counters["misses"], counters["hits"]) == (1, 0)
        asyncio.run(burst())
        assert cached_service.stats()["result_cache"]["hits"] == 1

    def test_patch_invalidates_and_serves_fresh_answers(self, cached_service):
        submit_all(cached_service, QUERIES)
        u, v, distance = sorted(cached_service.executor.network.edges())[0]
        cached_service.update_edge_distance(u, v, distance * 2.5)
        counters = cached_service.stats()["result_cache"]
        assert counters["invalidations"] > 0
        (post,) = submit_all(cached_service, QUERIES)
        assert post == cached_service.run_many(QUERIES)

    def test_invalidation_matches_footprints_exactly(self, cached_service):
        """Service-level precision: recompute the victims each report
        should claim from the stored footprints and hold the cache to
        exactly that set — no sparing, no collateral — for a reweigh,
        an insert and a delete."""
        network = cached_service.executor.network
        u, v, distance = sorted(network.edges())[0]
        fresh = SpatialObject(10_000, (u, v), 0.0, {"type": "cafe"})
        writes = [
            lambda: cached_service.update_edge_distance(u, v, distance * 1.7),
            lambda: cached_service.insert_object(fresh),
            lambda: cached_service.delete_object(fresh.object_id),
        ]
        cache = cached_service._result_cache
        for write in writes:
            submit_all(cached_service, QUERIES)
            before = dict(cache._entries)
            assert len(before) == len(QUERIES)
            spent = cache.invalidations
            write()
            report = cached_service.executor.last_report
            assert not report.structural
            expected_victims = {
                key for key, entry in before.items() if _reaches(report, key, entry)
            }
            assert set(before) - set(cache._entries) == expected_victims
            assert cache.invalidations - spent == len(expected_victims)
            (post,) = submit_all(cached_service, QUERIES)
            assert post == cached_service.run_many(QUERIES)

    def test_od_entry_dies_when_a_bypassed_rnet_is_reweighed(
        self, network, objects, cached_service
    ):
        """An OD sweep crosses target-free Rnets on their shortcuts, so
        its footprint carries Rnet ids — and a reweigh that changes such
        an Rnet's shortcuts must reach the entry through them."""
        query = ODMatrixQuery((0,), (63,))
        submit_all(cached_service, [query])
        cache = cached_service._result_cache
        key = canonical_key(DIR, query)
        road = cached_service.executor.road
        goal = TargetSet(road.hierarchy, [63])
        bypassed = [
            road.hierarchy.rnet(rnet_id)
            for rnet_id in sorted(cache._entries[key].rnets)
            if not goal.rnet_may_contain(rnet_id, None)
        ]
        rnet = next(r for r in bypassed if len(r.border) >= 2)
        # The first edge of the in-Rnet shortest path between two of its
        # borders: making it shorter shortens that shortcut.
        a, b = sorted(rnet.border)[:2]
        _, pred = dijkstra(
            lambda n: (
                (m, w)
                for m, w in cached_service.executor.network.neighbours(n)
                if edge_key(n, m) in rnet.edges
            ),
            a,
            targets={b},
        )
        node = b
        while pred[node] != a:
            node = pred[node]
        distance = cached_service.executor.network.edge_distance(a, node) / 10
        uncached = RoadService.build(
            network.copy(), objects, config=ServiceConfig(levels=3)
        )
        try:
            report = cached_service.update_edge_distance(a, node, distance)
            uncached.update_edge_distance(a, node, distance)
            assert rnet.rnet_id in report.dirty_rnets
            assert key not in cache._entries
            assert submit_all(cached_service, [query]) == submit_all(
                uncached, [query]
            )
        finally:
            uncached.close()

    def test_structural_patch_nukes_the_cache(self, cached_service):
        submit_all(cached_service, QUERIES)
        network = cached_service.executor.network
        a, b = 0, 27
        assert not network.has_edge(a, b)
        report = cached_service.write(AddEdge(a, b, 1.0))
        assert report.structural
        assert len(cached_service._result_cache) == 0
        (post,) = submit_all(cached_service, QUERIES)
        assert post == cached_service.run_many(QUERIES)

    def test_object_churn_spares_other_directories(
        self, network, objects, cached_service
    ):
        hotels = place_uniform(
            network, 6, seed=41, attr_choices={"type": ["cafe"]}
        )
        cached_service.attach_objects(hotels, name="hotels")
        query = KNNQuery(0, 2)

        async def one(directory):
            return await cached_service.submit(query, directory=directory)

        asyncio.run(one("objects"))
        asyncio.run(one("hotels"))
        cache = cached_service._result_cache
        assert len(cache) == 2
        u, v, _ = sorted(network.edges())[0]
        cached_service.insert_object(
            SpatialObject(hotels.next_id(), (u, v), 0.0, {"type": "cafe"}),
            directory="hotels",
        )
        # The objects-directory entry survives hotel churn.
        assert canonical_key("objects", query) in cache._entries
        assert asyncio.run(one("objects")) == cached_service.run(
            query, directory="objects"
        )
        assert asyncio.run(one("hotels")) == cached_service.run(
            query, directory="hotels"
        )

    def test_attach_invalidates_only_the_new_directory(
        self, network, cached_service
    ):
        submit_all(cached_service, QUERIES)
        entries = len(cached_service._result_cache)
        hotels = place_uniform(network, 6, seed=5)
        cached_service.attach_objects(hotels, name="hotels")
        assert len(cached_service._result_cache) == entries
        (post,) = submit_all(cached_service, QUERIES)
        assert post == cached_service.run_many(QUERIES)

    def test_zipf_stream_executes_a_third_or_less(self, network, cached_service):
        """The count the cache exists to move: on a Zipf stream arriving
        in small flushes (coalescing only dedupes inside one), the cached
        service executes at most a third of what the uncached one does."""
        rnd = random.Random(5)
        pool = [
            KNNQuery(node, 3) if rank % 2 else RangeQuery(node, 300.0)
            for rank, node in enumerate(rnd.sample(range(network.num_nodes), 24))
        ]
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
        waves = [rnd.choices(pool, weights=weights, k=8) for _ in range(30)]
        uncached = RoadService(
            cached_service.executor, config=ServiceConfig()
        )
        try:
            for wave in waves:
                assert submit_all(cached_service, wave) == submit_all(uncached, wave)
            executed = uncached.stats()["service"]["executed"]
        finally:
            uncached.close()
        assert 3 * cached_service.stats()["service"]["executed"] <= executed

    def test_counters_agree_with_metrics_render_and_stats(
        self, cached_service
    ):
        submit_all(cached_service, QUERIES, repeats=2)
        u, v, distance = sorted(cached_service.executor.network.edges())[0]
        cached_service.update_edge_distance(u, v, distance * 2.0)
        counters = cached_service.stats()["result_cache"]
        text = cached_service.metrics.render()
        for name in ("hits", "misses", "evictions", "invalidations"):
            line = f"road_cache_{name}_total {counters[name]}"
            assert line in text, (line, text)
            assert f"# TYPE road_cache_{name}_total counter" in text
        hits, misses = counters["hits"], counters["misses"]
        ratio = hits / (hits + misses)
        snapshot = cached_service.stats()["metrics"]
        assert snapshot["road_cache_hit_ratio"] == pytest.approx(ratio)
        assert snapshot["road_cache_entries"] == float(
            len(cached_service._result_cache)
        )


class TestExactInvalidation:
    """One service-level case per clause of the exact rule.

    Each case finds, in a warmed cache, an entry that only its clause
    can reach (the write's edge endpoints are outside the entry's
    nodes), applies the write to the cached service and an uncached
    twin, and holds the cache to evicting the entry and to answering
    like the twin afterwards.  A 12x12 grid at three levels with ten
    objects leaves object-free leaves and leaves of a single object
    that a 2NN crosses both ways.
    """

    @pytest.fixture
    def twins(self):
        network = grid_network(12, 12, seed=3)
        objects = place_uniform(
            network, 10, seed=4, attr_choices={"type": ["cafe", "fuel"]}
        )
        cached = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(
                levels=3, max_batch=256,
                result_cache=True, cache_budget=256,
            ),
        )
        uncached = RoadService.build(
            network.copy(), objects, config=ServiceConfig(levels=3)
        )
        queries = [KNNQuery(node, 2) for node in range(network.num_nodes)]
        submit_all(cached, queries)
        assert len(cached._result_cache) == len(queries)
        yield cached, uncached, queries
        cached.close()
        uncached.close()

    @staticmethod
    def _entries(service):
        return list(service._result_cache._entries.items())

    @staticmethod
    def _apply(cached, uncached, write):
        write(cached)
        write(uncached)
        return cached.executor.last_report

    @staticmethod
    def _assert_fresh(cached, uncached, queries):
        (served,) = submit_all(cached, queries)
        assert served == uncached.run_many(queries)

    def test_a_reweigh_inside_a_bypassed_rnet_evicts(self, twins):
        cached, uncached, queries = twins
        road = cached.executor.road
        network = cached.executor.network

        def path_edges(rnet, a, b):
            """Edges of the in-Rnet shortest path from border a to b."""
            _, pred = dijkstra(
                lambda n: (
                    (m, w)
                    for m, w in network.neighbours(n)
                    if edge_key(n, m) in rnet.edges
                ),
                a,
                targets={b},
            )
            if b not in pred:
                return []
            edges, node = [], b
            while node != a:
                edges.append((pred[node], node))
                node = pred[node]
            return edges

        def candidates():
            for key, entry in self._entries(cached):
                for rnet_id in sorted(entry.bypassed):
                    rnet = road.hierarchy.rnet(rnet_id)
                    a, b = sorted(rnet.border)[:2]
                    for x, y in path_edges(rnet, a, b):
                        if {x, y}.isdisjoint(entry.nodes):
                            yield key, rnet_id, (x, y)

        key, rnet_id, (x, y) = next(candidates())
        shorter = network.edge_distance(x, y) / 10
        report = self._apply(
            cached, uncached, lambda svc: svc.update_edge_distance(x, y, shorter)
        )
        assert rnet_id in report.dirty_rnets
        assert key not in cached._result_cache._entries
        self._assert_fresh(cached, uncached, queries)

    def test_an_insert_into_a_bypassed_object_free_leaf_evicts(self, twins):
        cached, uncached, queries = twins
        road = cached.executor.road
        directory = road.directory()
        key, leaf, (u, v) = next(
            (key, rnet_id, edge)
            for key, entry in self._entries(cached)
            for rnet_id in sorted(entry.bypassed)
            if road.hierarchy.rnet(rnet_id).is_leaf
            and directory.peek_rnet_abstract(rnet_id) is None
            for edge in sorted(road.hierarchy.rnet(rnet_id).edges)
            if set(edge).isdisjoint(entry.nodes)
        )
        obj = SpatialObject(10_000, (u, v), 0.0, {"type": "cafe"})
        report = self._apply(cached, uncached, lambda svc: svc.insert_object(obj))
        assert leaf in report.mask_rnets
        assert key not in cached._result_cache._entries
        self._assert_fresh(cached, uncached, queries)

    def test_deleting_a_descended_leafs_last_object_evicts(self, twins):
        cached, uncached, queries = twins
        road = cached.executor.road
        directory = road.directory()
        hosted = {}
        for obj in directory.objects:
            leaf = road.hierarchy.leaf_of_edge(*obj.edge).rnet_id
            hosted.setdefault(leaf, []).append(obj)
        key, leaf, obj = next(
            (key, rnet_id, hosted[rnet_id][0])
            for key, entry in self._entries(cached)
            for rnet_id in sorted(entry.descended)
            if len(hosted.get(rnet_id, ())) == 1
            and set(hosted[rnet_id][0].edge).isdisjoint(entry.nodes)
        )
        report = self._apply(
            cached, uncached, lambda svc: svc.delete_object(obj.object_id)
        )
        assert leaf in report.mask_rnets
        assert key not in cached._result_cache._entries
        self._assert_fresh(cached, uncached, queries)

    def _insert_beside_a_twin(self, twins):
        """Insert, at a cached origin, an object whose attributes its leaf
        already holds: no abstract's pruning key moves."""
        cached, uncached, queries = twins
        road = cached.executor.road
        directory = road.directory()
        origin, (u, v), twin = next(
            (node, edge_key(node, m), obj)
            for node in range(len(queries))
            for m, _ in sorted(road.network.neighbours(node))
            for obj in directory.objects
            if road.hierarchy.leaf_of_edge(*obj.edge)
            is road.hierarchy.leaf_of_edge(node, m)
        )
        before = dict(cached._result_cache._entries)
        delta = 0.0 if u == origin else road.network.edge_distance(u, v)
        obj = SpatialObject(10_000, (u, v), delta, dict(twin.attrs))
        report = self._apply(cached, uncached, lambda svc: svc.insert_object(obj))
        assert not report.mask_rnets
        return origin, (u, v), before

    def test_an_edge_endpoint_hit_evicts(self, twins):
        cached, uncached, queries = twins
        origin, _, _ = self._insert_beside_a_twin(twins)
        query = KNNQuery(origin, 2)
        assert canonical_key(DIR, query) not in cached._result_cache._entries
        ((answer,),) = submit_all(cached, [query])
        assert answer[0].distance == 0.0  # the new object, at the origin
        self._assert_fresh(cached, uncached, queries)

    def test_an_insert_beside_objects_spares_whoever_missed_its_edge(self, twins):
        cached = twins[0]
        _, (u, v), before = self._insert_beside_a_twin(twins)
        spared = {
            key for key, entry in before.items() if {u, v}.isdisjoint(entry.nodes)
        }
        assert spared and spared <= set(cached._result_cache._entries)

    def test_object_churn_skips_od_entries(self, network, objects, cached_service):
        """An OD answer is a pure network product: churn at its very
        source leaves the entry cached, and still right."""
        query = ODMatrixQuery((0, 9), (27, 63))
        submit_all(cached_service, [query])
        key = canonical_key(DIR, query)
        u, v = edge_key(0, sorted(cached_service.executor.network.neighbours(0))[0][0])
        assert not {u, v}.isdisjoint(cached_service._result_cache._entries[key].nodes)
        cached_service.insert_object(
            SpatialObject(10_000, (u, v), 0.0, {"type": "cafe"})
        )
        assert key in cached_service._result_cache._entries
        uncached = RoadService(
            cached_service.executor, config=ServiceConfig()
        )
        try:
            assert submit_all(cached_service, [query]) == submit_all(
                uncached, [query]
            )
        finally:
            uncached.close()


@pytest.mark.parametrize(
    "replica_mode",
    [
        "thread",
        pytest.param(
            "process",
            marks=pytest.mark.skipif(
                not shared_memory_available(),
                reason="host has no POSIX shared memory (/dev/shm)",
            ),
        ),
    ],
)
class TestCachedReplicaModes:
    def test_cache_sits_above_the_shards(self, network, objects, replica_mode):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(
                levels=3, replicas=2,
                replica_mode=replica_mode, max_batch=64,
                result_cache=True, cache_budget=64,
            ),
        )
        try:
            cold, warm = submit_all(service, QUERIES, repeats=2)
            assert cold == warm == service.run_many(QUERIES)
            counters = service.stats()["result_cache"]
            assert counters["hits"] == len(QUERIES)
            u, v, distance = sorted(service.executor.network.edges())[0]
            service.update_edge_distance(u, v, distance * 2.5)
            (post,) = submit_all(service, QUERIES)
            assert post == service.run_many(QUERIES)
        finally:
            service.close()


@pytest.mark.parametrize("arm", list(ARMS))
def test_membership_changes_evict_only_their_directory(network, objects, arm):
    """One eviction rule in every replica mode: attaching or detaching
    directory ``b`` evicts ``b``'s cached answers and nothing else.  The
    Route Overlay and every other directory are untouched, so their
    answers stand — served from the cache afterwards, equal to a fresh
    run."""
    service = build_arm(
        network, objects, arm, result_cache=True, cache_budget=64
    )
    queries = [KNNQuery(node, 2) for node in range(10)]
    try:
        submit_all(service, queries)
        cache = service._result_cache
        assert len(cache) == 10
        service.attach_objects(place_uniform(network, 6, seed=41), name="b")
        assert len(cache) == 10

        async def in_b():
            return await asyncio.gather(
                *(service.submit(q, directory="b") for q in queries[:3])
            )

        asyncio.run(in_b())
        assert len(cache) == 13
        service.detach_objects("b")
        assert sorted(key[0] for key in cache._entries) == [DIR] * 10
        hits = cache.hits
        (post,) = submit_all(service, queries)
        assert cache.hits - hits == 10
        assert post == service.run_many(queries)
    finally:
        service.close()
