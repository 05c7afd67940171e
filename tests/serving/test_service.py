"""RoadService: config, sync/async/sharded byte-identity, maintenance.

The acceptance contract: the service serves **byte-identical** results
across the sync path, the async admission-batched path, and the
replica paths — including after maintenance patches — verified both by
direct result comparison and with the
:func:`repro.eval.metrics.snapshot_divergences` probes between the
snapshots that serve and a fresh freeze.
"""

import asyncio
import glob
import random
import time
from concurrent.futures import Future

import pytest

from repro.baselines import NetworkExpansionEngine
from repro.core.framework import ROAD
from repro.core.frozen_backends import shared_memory_available
from repro.eval.metrics import snapshot_divergences
from repro.graph.generators import grid_network
from repro.objects.model import SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.types import KNNQuery, Predicate, RangeQuery
from repro.queries.workload import mixed_workload
from repro.serving import (
    ProcessPoolError,
    QueryExecutor,
    RoadService,
    ServiceConfig,
    ServiceError,
    UnknownDirectoryError,
    UnknownNodeError,
    UnsupportedQueryError,
)
from repro.serving.service import FLUSH_REASONS
from tests.oracle import ARMS, build_arm, serving_snapshots


@pytest.fixture
def network():
    return grid_network(9, 9, seed=3)


@pytest.fixture
def objects(network):
    return place_uniform(
        network, 24, seed=8, attr_choices={"type": ["cafe", "fuel"]}
    )


@pytest.fixture
def workload(network):
    return mixed_workload(
        network, 40, k=3, radius=300.0, seed=21,
        predicates=[Predicate.of(type="cafe"), Predicate.of(type="fuel")],
    )


def gather_submits(service, queries, **kwargs):
    async def go():
        return await asyncio.gather(
            *(service.submit(q, **kwargs) for q in queries)
        )

    return asyncio.run(go())


def flush_reasons(service):
    """``road_flushes_total`` by reason (the children are get-or-create)."""
    return {
        reason: int(
            service.metrics.counter(
                "road_flushes_total", labels={"reason": reason}
            ).value
        )
        for reason in FLUSH_REASONS
    }


class EchoExecutor(QueryExecutor):
    """Answers every query with ``[query]``, ``delay_s`` after being asked."""

    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s

    def supports(self, query):
        return True

    def execute_many(self, queries, *, directory=None, stats=None):
        time.sleep(self.delay_s)
        return [[query] for query in queries]


class HeldReplicas:
    """A replica set whose batches complete when the test says so."""

    frozen = None
    replicas = ()
    closed = False

    def __init__(self, workers, refuse=None):
        self.workers = workers
        self.refuse = refuse
        self.batches = []  # (queries, Future), in hand-off order

    def submit(self, queries, directory, *, footprints=False):
        if self.refuse is not None:
            raise self.refuse
        future = Future()
        self.batches.append((list(queries), future))
        return future

    def finish(self, index):
        queries, future = self.batches[index]
        future.set_result([[query] for query in queries])

    def sizes(self):
        return [len(queries) for queries, _future in self.batches]

    def stats(self):
        return {}

    def close(self):
        self.closed = True


def held_service(workers, *, refuse=None, **config):
    """A service over :class:`HeldReplicas`: admission under the test's
    control, no timer in reach unless the test shortens it."""
    settings = {"max_batch": 64, "max_delay_ms": 10_000.0, **config}
    service = RoadService(EchoExecutor(), config=ServiceConfig(**settings))
    service._shards = shards = HeldReplicas(workers, refuse)
    return service, shards


async def settle():
    """Let every callback already scheduled (and those they schedule) run."""
    for _ in range(8):
        await asyncio.sleep(0)


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.mode == "charged"
        assert config.replicas == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mode", "warm"),
            ("max_batch", 0),
            ("max_delay_ms", -1.0),
            ("replicas", -2),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServiceConfig(**{field: value})

    def test_numpy_backend_name_rejected(self):
        """No config field picks an array layout: the primary snapshot
        is a list one, the process pool's an shm one."""
        with pytest.raises(TypeError, match="backend"):
            ServiceConfig(backend="numpy")

    def test_from_env_ignores_backend_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "shm")
        monkeypatch.setenv("REPRO_REPLICAS", "1")
        config = ServiceConfig.from_env()
        assert config.replicas == 1
        assert not hasattr(config, "backend")

    def test_from_env_reads_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "frozen")
        monkeypatch.setenv("REPRO_REPLICAS", "3")
        config = ServiceConfig.from_env()
        assert config.mode == "frozen"
        assert config.replicas == 3

    def test_sharded_build_never_compiles_a_primary_snapshot(
        self, network, objects
    ):
        """Regression: resolving the shard default must not freeze the
        primary — only the engine's own freeze may run at build, and a
        membership change re-freezes it exactly once, inside the attach."""
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, replicas=2),
        )
        try:
            engine = service.executor
            # mode="frozen" freezes the primary once at engine build; the
            # replica setup must not add lazy freezes on top.
            assert engine.stats()["maintenance"]["freezes"] == 1
            hotels = place_uniform(network, 6, seed=41)
            service.attach_objects(hotels, name="hotels")
            assert engine.stats()["maintenance"]["freezes"] == 2
            service.run(KNNQuery(0, 1))  # no query-time freeze
            assert engine.stats()["maintenance"]["freezes"] == 2
        finally:
            service.close()

    def test_explicit_kwargs_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "frozen")
        assert ServiceConfig.from_env(mode="charged").mode == "charged"

    @pytest.mark.parametrize("name", ["REPRO_REPLICAS", "REPRO_CACHE_BUDGET"])
    def test_from_env_integer_typo_names_its_variable(self, monkeypatch, name):
        monkeypatch.setenv(name, "2x")
        with pytest.raises(ValueError, match=f"{name} must be an integer, got '2x'"):
            ServiceConfig.from_env()

    def test_env_validation_still_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "lukewarm")
        with pytest.raises(ValueError):
            ServiceConfig.from_env()


class TestBuild:
    def test_build_selects_engine_family(self, network, objects):
        """``build`` constructs the ROAD engine; any other family is
        built by its caller and wrapped."""
        service = RoadService.build(
            network.copy(), objects, config=ServiceConfig(levels=3)
        )
        assert type(service.executor).__name__ == "ROADEngine"
        engine = NetworkExpansionEngine(network.copy(), objects)
        service = RoadService(engine)
        assert service.executor is engine
        assert gather_submits(service, [KNNQuery(0, 2)]) == [engine.knn(0, 2)]

    def test_build_road_frozen(self, network, objects):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3),
        )
        assert service.executor.mode == "frozen"
        assert service.executor.frozen is not None

    def test_wrap_existing_road(self, network, objects):
        road = ROAD.build(network.copy(), levels=3)
        road.attach_objects(objects)
        service = RoadService(road)
        assert service.run(KNNQuery(0, 2)) == road.knn(0, 2)

    def test_non_executor_rejected(self):
        with pytest.raises(TypeError):
            RoadService(object())

    def test_replicas_need_a_road(self, network, objects):
        with pytest.raises(ServiceError, match="ROAD-backed"):
            RoadService(
                NetworkExpansionEngine(network.copy(), objects),
                config=ServiceConfig(replicas=2),
            )


class TestByteIdentity:
    """Sync == async-batched == sharded-replica, on every installed backend."""

    def test_async_matches_sync(self, network, objects, workload):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, max_batch=256),
        )
        assert gather_submits(service, workload) == service.run_many(workload)
        service.close()

    def test_sharded_matches_sync(self, network, objects, workload):
        """Thread replicas decide where a batch runs, not what it runs
        on: two pool threads, no snapshot of their own, and answers
        that follow the primary's patches with nothing broadcast."""
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(
                mode="frozen", levels=3, replicas=2, max_batch=8
            ),
        )
        try:
            assert service.replicas == ()
            assert service.stats()["replicas"] == 2
            assert gather_submits(service, workload) == service.run_many(workload)
            assert service.replica_pool_stats()["batches"] >= 1
            u, v, distance = next(service.executor.network.edges())
            service.update_edge_distance(u, v, distance * 3.0)
            assert gather_submits(service, workload) == service.run_many(workload)
            assert service.replica_pool_stats()["syncs"] == 0
        finally:
            service.close()

    def test_coalescing_preserves_answers(self, network, objects):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, max_batch=512),
        )
        query = KNNQuery(4, 3)
        answers = gather_submits(service, [query] * 12)
        expected = service.run(query)
        assert all(answer == expected for answer in answers)
        counters = service.stats()["service"]
        assert counters["coalesced"] == 11
        assert counters["executed"] == 1
        service.close()

    def test_coalesced_answers_are_independent_lists(self, network, objects):
        """Regression: a caller mutating its answer must not corrupt its
        coalesced in-flight twins' (the sync path hands out distinct
        lists, so aliasing would break sync/async parity)."""
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, max_batch=512),
        )
        query = KNNQuery(4, 3)
        first, second = gather_submits(service, [query] * 2)
        assert first is not second
        expected = list(second)
        first.reverse()
        first.pop()
        assert second == expected
        service.close()

    def test_charged_async_matches_sync(self, network, objects, workload):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="charged", levels=3, max_batch=256),
        )
        assert gather_submits(service, workload) == service.run_many(workload)
        service.close()


@pytest.mark.parametrize("cached", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("arm", list(ARMS))
def test_dispatch_lattice(network, objects, workload, arm, cached):
    """{inline, thread×2, process×1} × {cache off, on}: one pipeline,
    so every cell gives the same answers and obeys the same counter
    identities."""
    service = build_arm(
        network, objects, arm, max_batch=8, result_cache=cached
    )
    try:
        # Adjacent twins share a flush (8 = four pairs), so they coalesce.
        twinned = [query for query in workload for _ in range(2)]
        answers = gather_submits(service, twinned)
        assert answers == service.run_many(twinned)
        # Coalesced twins and cached answers are copies, never aliases.
        assert len({id(answer) for answer in answers}) == len(answers)
        first = dict(service.stats()["service"])
        assert first["coalesced"] >= len(workload)
        # A second pass: with the cache on nothing executes again.
        again = gather_submits(service, workload)
        assert again == service.run_many(workload)
        assert len({id(answer) for answer in again}) == len(again)

        # A third: one query per event-loop tick, so nothing to batch
        # with — every submit is its own idle flush.
        async def one_per_tick():
            return [await service.submit(query) for query in workload[:10]]

        assert asyncio.run(one_per_tick()) == service.run_many(workload[:10])
        stats = service.stats()
        counters = stats["service"]
        hits = stats["result_cache"]["hits"] if cached else 0
        assert counters["submitted"] == len(twinned) + len(workload) + 10
        assert counters["flushes"] == sum(flush_reasons(service).values())
        assert stats["in_flight"] == 0
        assert (
            counters["executed"] + counters["coalesced"] + hits
            == counters["submitted"]
        )
        assert 1 <= counters["batches"] <= counters["executed"]
        if cached:
            assert counters["executed"] == first["executed"]
            assert stats["result_cache"]["misses"] == counters["executed"]
        else:
            assert counters["executed"] > first["executed"]
        pool = stats["replica_pool"]
        assert pool["batches"] == counters["batches"]
        assert pool["queries"] == counters["executed"]
    finally:
        service.close()


def test_replica_pool_stats_keys_are_mode_independent(network, objects):
    """The documented parity: whatever reads thread-mode pool stats
    reads process-mode ones too (the process pool only adds keys)."""
    keys = {}
    for arm in ARMS:
        service = build_arm(network, objects, arm)
        try:
            keys[arm] = set(service.replica_pool_stats())
        finally:
            service.close()
    assert keys["inline"] == keys["thread"] <= keys["process"]


class TestShardedMaintenance:
    def test_patch_broadcast_keeps_replicas_identical(
        self, network, objects, workload
    ):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, replicas=2),
        )
        try:
            engine = service.executor
            u, v, distance = next(engine.network.edges())
            service.update_edge_distance(u, v, distance * 2.5)
            service.insert_object(
                SpatialObject(objects.next_id(), (u, v), 0.0, {"type": "cafe"})
            )
            # The serving snapshot was patched, not re-frozen: zero
            # divergences against a fresh freeze of the updated road.
            fresh = engine.road.freeze()
            for replica in serving_snapshots(service):
                divergences = snapshot_divergences(
                    random.Random(17), replica, fresh, probes=3
                )
                assert divergences == []
            assert gather_submits(service, workload) == service.run_many(workload)
        finally:
            service.close()

    def test_patch_broadcast_covers_every_directory(self, network, objects):
        """Sharded replicas compile every attached provider; one report
        reconciles all directories on all shards."""
        hotels = place_uniform(
            network, 10, seed=31, attr_choices={"type": ["cafe"]}
        )
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, replicas=2),
            providers={"hotels": hotels},
        )
        try:
            engine = service.executor
            assert all(
                replica.directory_names == ["objects", "hotels"]
                for replica in serving_snapshots(service)
            )
            u, v, distance = next(engine.network.edges())
            service.update_edge_distance(u, v, distance * 1.8)
            service.insert_object(
                SpatialObject(hotels.next_id(), (u, v), 0.0, {"type": "cafe"}),
                directory="hotels",
            )
            for name in ("objects", "hotels"):
                fresh = engine.road.freeze(directory=name)
                for replica in serving_snapshots(service):
                    divergences = snapshot_divergences(
                        random.Random(5), replica, fresh, probes=3,
                        directory=name,
                    )
                    assert divergences == []
            queries = [KNNQuery(0, 3), KNNQuery(9, 2)]
            assert gather_submits(
                service, queries, directory="hotels"
            ) == service.run_many(queries, directory="hotels")
        finally:
            service.close()


class TestAdmissionControl:
    def test_unsupported_query_rejected_before_admission(
        self, network, objects
    ):
        service = RoadService.build(
            network.copy(), objects, config=ServiceConfig(levels=3)
        )

        async def go():
            with pytest.raises(UnsupportedQueryError):
                await service.submit("not a query")
            # The poisoned submit must not leave residue behind.
            return await service.submit(KNNQuery(0, 2))

        assert asyncio.run(go()) == service.run(KNNQuery(0, 2))
        service.close()

    def test_kind_naming_another_method_is_refused(self, network, objects):
        """Only the declared query classes dispatch: an object whose
        ``kind`` names some other snapshot method (``close``) is refused
        by ``supports``, ``execute`` and ``submit`` and never called."""

        class Impostor:
            kind = "close"
            node = 0

        road = ROAD.build(network.copy(), levels=3)
        road.attach_objects(objects)
        snapshot = road.freeze()
        service = RoadService(snapshot)
        try:
            assert not snapshot.supports(Impostor())
            with pytest.raises(UnsupportedQueryError, match="FrozenRoad"):
                snapshot.execute(Impostor())

            async def go():
                with pytest.raises(UnsupportedQueryError, match="FrozenRoad"):
                    await service.submit(Impostor())
                return await service.submit(KNNQuery(0, 2))

            # The snapshot was not closed: it still serves, sync and async.
            assert asyncio.run(go()) == snapshot.execute(KNNQuery(0, 2))
            assert service.run(KNNQuery(0, 2)) == snapshot.execute(KNNQuery(0, 2))
        finally:
            service.close()

    def test_unknown_directory_rejected_before_admission(
        self, network, objects
    ):
        service = RoadService.build(
            network.copy(), objects, config=ServiceConfig(levels=3)
        )

        async def go():
            with pytest.raises(UnknownDirectoryError):
                await service.submit(KNNQuery(0, 2), directory="nope")

        asyncio.run(go())
        service.close()

    @pytest.mark.parametrize(
        "settings",
        [{}, {"replicas": 1}, {"result_cache": True}],
        ids=["inline", "thread", "cached"],
    )
    def test_unknown_node_rejects_its_caller_alone(
        self, network, objects, settings
    ):
        """One caller's bad node id is refused at admission; the
        neighbours that would have shared its batch get their answers."""
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, **settings),
        )
        queries = [KNNQuery(3, 1), KNNQuery(999, 1), KNNQuery(5, 1)]

        async def go():
            return await asyncio.gather(
                *(service.submit(q) for q in queries), return_exceptions=True
            )

        try:
            first, bad, last = asyncio.run(go())
            assert isinstance(bad, UnknownNodeError) and bad.node == 999
            assert [first, last] == service.run_many([queries[0], queries[2]])
            assert service.stats()["service"]["submitted"] == 2
        finally:
            service.close()

    def test_survives_an_abandoned_event_loop(self, network, objects):
        """Regression: a loop dying with a flush timer pending must not
        wedge the service — the next loop's submits adopt fresh state."""
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(
                mode="frozen", levels=3, max_batch=64, max_delay_ms=50.0
            ),
        )
        query = KNNQuery(0, 2)

        async def abandon():
            task = asyncio.ensure_future(service.submit(query))
            await asyncio.sleep(0)  # let it enqueue + schedule the timer
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(abandon())

        async def fresh_loop():
            return await asyncio.wait_for(service.submit(query), timeout=5.0)

        assert asyncio.run(fresh_loop()) == service.run(query)
        service.close()

    def test_wrapping_named_directory_snapshot(self, network, objects):
        """A service over a snapshot of a named provider serves it by
        default (an omitted directory cascades to the executor)."""
        road = ROAD.build(network.copy(), levels=3)
        road.attach_objects(objects, name="hotels")
        snapshot = road.freeze(directory="hotels")
        service = RoadService(snapshot)
        query = KNNQuery(0, 2)
        assert service.run(query) == snapshot.knn(0, 2)

        async def go():
            return await service.submit(query)

        assert asyncio.run(go()) == snapshot.knn(0, 2)
        service.close()

    def test_max_batch_flushes_without_waiting(self, network, objects):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(
                mode="frozen", levels=3, max_batch=4,
                max_delay_ms=10_000.0,  # only the occupancy flush can fire
            ),
        )
        queries = [KNNQuery(n, 2) for n in (0, 10, 20, 30)]

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(*(service.submit(q) for q in queries)),
                timeout=5.0,
            )

        assert asyncio.run(go()) == service.run_many(queries)
        service.close()

    def test_per_predicate_buckets(self, network, objects):
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(mode="frozen", levels=3, max_batch=64),
        )
        queries = [
            KNNQuery(0, 2, Predicate.of(type="cafe")),
            KNNQuery(0, 2, Predicate.of(type="fuel")),
            RangeQuery(5, 200.0, Predicate.of(type="cafe")),
        ]
        assert gather_submits(service, queries) == service.run_many(queries)
        # Two distinct predicates -> two buckets -> two batches.
        assert service.stats()["service"]["batches"] == 2
        service.close()


class TestWorkConservingAdmission:
    """The admission contract: flush within the tick while a replica is
    free, hold only while every replica is busy, and then until a batch
    completes, ``max_batch`` fills or ``max_delay_ms`` passes."""

    QUERIES = [KNNQuery(node, 1) for node in range(6)]

    def test_submit_latency_covers_the_batch_that_the_query_filled(self):
        """Regression: the clock started after the occupancy flush, so on
        inline execution the query filling the bucket recorded ~0 ms."""
        service = RoadService(
            EchoExecutor(delay_s=0.005), config=ServiceConfig(max_batch=4)
        )
        gather_submits(service, self.QUERIES[:4])
        latency = service.metrics.histogram("road_query_latency_ms")
        # Even the fastest of the four sits in a bucket above 5 ms.
        assert latency.count == 4 and latency.percentile(0.25) > 5.0
        assert flush_reasons(service)["full"] == 1
        service.close()

    def test_idle_gather_is_one_batch_without_the_timer(self):
        service, shards = held_service(workers=2)

        async def go():
            tasks = [
                asyncio.ensure_future(service.submit(query))
                for query in self.QUERIES[:3]
            ]
            await settle()
            assert shards.sizes() == [3]
            assert service.stats()["in_flight"] == 1
            shards.finish(0)
            return await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)

        assert asyncio.run(go()) == [[query] for query in self.QUERIES[:3]]
        assert flush_reasons(service) == {
            "full": 0, "idle": 1, "released": 0, "deadline": 0,
        }
        stats = service.stats()
        assert stats["in_flight"] == 0
        assert stats["service"]["flushes"] == 1
        waits = stats["metrics"]["road_stage_ms"]['{stage="admit_wait"}']
        assert waits["count"] == 1 and waits["sum"] < 1_000.0

    def test_busy_replica_holds_then_a_completion_releases_one_batch(
        self, monkeypatch
    ):
        service, shards = held_service(workers=1)
        events = []
        handoff, deliver = shards.submit, service._deliver
        monkeypatch.setattr(
            shards, "submit",
            lambda *a, **kw: events.append("handoff") or handoff(*a, **kw),
        )
        monkeypatch.setattr(
            service, "_deliver",
            lambda *a: events.append("deliver") or deliver(*a),
        )

        async def go():
            first = asyncio.ensure_future(service.submit(self.QUERIES[0]))
            await settle()
            held = []
            for query in self.QUERIES[1:4]:  # one per tick, replica busy
                held.append(asyncio.ensure_future(service.submit(query)))
                await settle()
            assert shards.sizes() == [1]
            assert service.stats()["in_flight"] == 1
            shards.finish(0)
            await settle()
            # Released as ONE batch, after the first batch's delivery.
            assert shards.sizes() == [1, 3]
            assert events == ["handoff", "deliver", "handoff"]
            assert first.done() and not any(task.done() for task in held)
            shards.finish(1)
            return await asyncio.wait_for(asyncio.gather(*held), timeout=5.0)

        assert asyncio.run(go()) == [[query] for query in self.QUERIES[1:4]]
        assert flush_reasons(service) == {
            "full": 0, "idle": 1, "released": 1, "deadline": 0,
        }
        assert service.stats()["in_flight"] == 0

    def test_deadline_bounds_the_hold_while_busy(self):
        service, shards = held_service(workers=1, max_delay_ms=5.0)

        async def go():
            first = asyncio.ensure_future(service.submit(self.QUERIES[0]))
            await settle()
            second = asyncio.ensure_future(service.submit(self.QUERIES[1]))
            await settle()
            assert shards.sizes() == [1]  # held: the one replica is busy
            for _ in range(200):  # ... but only for max_delay_ms
                if len(shards.batches) == 2:
                    break
                await asyncio.sleep(0.005)
            assert shards.sizes() == [1, 1]
            assert service.stats()["in_flight"] == 2
            shards.finish(0)
            shards.finish(1)
            return await asyncio.wait_for(
                asyncio.gather(first, second), timeout=5.0
            )

        assert asyncio.run(go()) == [[query] for query in self.QUERIES[:2]]
        assert flush_reasons(service) == {
            "full": 0, "idle": 1, "released": 0, "deadline": 1,
        }

    def test_full_bucket_flushes_inside_submit_even_while_busy(self):
        service, shards = held_service(workers=1, max_batch=2)

        async def go():
            first = asyncio.ensure_future(service.submit(self.QUERIES[0]))
            await settle()
            pair = [
                asyncio.ensure_future(service.submit(query))
                for query in self.QUERIES[1:3]
            ]
            await settle()
            assert shards.sizes() == [1, 2]
            shards.finish(0)
            shards.finish(1)
            await asyncio.wait_for(asyncio.gather(first, *pair), timeout=5.0)

        asyncio.run(go())
        assert flush_reasons(service) == {
            "full": 1, "idle": 1, "released": 0, "deadline": 0,
        }

    def test_close_with_a_tick_flush_armed_rejects_cleanly(self):
        service, shards = held_service(workers=1)
        unhandled = []

        async def go():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            task = asyncio.ensure_future(service.submit(self.QUERIES[0]))
            await asyncio.sleep(0)  # enqueued; the idle flush has not run
            assert service._flush_handle is not None
            service.close()
            with pytest.raises(ServiceError, match="service closed"):
                await task
            await settle()

        asyncio.run(go())
        assert (shards.batches, unhandled) == ([], [])
        assert service.stats()["service"]["flushes"] == 0

    def test_adopting_a_loop_cancels_the_armed_flush_and_the_busy_count(self):
        service, shards = held_service(workers=2)
        stale = asyncio.new_event_loop()
        try:
            # The stale loop stops with one batch in flight and an idle
            # flush armed (call_soon) that never got its tick.
            busy = stale.create_task(service.submit(self.QUERIES[0]))
            stale.run_until_complete(settle())
            armed = stale.create_task(service.submit(self.QUERIES[1]))
            stale.call_soon(stale.stop)
            stale.run_forever()
            assert shards.sizes() == [1]
            assert service._flush_handle is not None
            assert service.stats()["in_flight"] == 1

            async def fresh_loop():
                task = asyncio.ensure_future(service.submit(self.QUERIES[2]))
                await settle()
                assert shards.sizes() == [1, 1]
                # The dead loop's batch no longer counts as a busy replica.
                assert service.stats()["in_flight"] == 1
                shards.finish(1)
                return await asyncio.wait_for(task, timeout=5.0)

            assert asyncio.run(fresh_loop()) == [self.QUERIES[2]]
            # The stale caller was rejected and its flush cancelled: given
            # its tick after all, the stale loop dispatches nothing.
            with pytest.raises(ServiceError, match="event loop changed"):
                stale.run_until_complete(armed)
            assert shards.sizes() == [1, 1]
            # Its batch finishing late still answers its own caller, but
            # is no longer the service's to count or to flush behind.
            shards.finish(0)
            assert stale.run_until_complete(busy) == [self.QUERIES[0]]
            assert service.stats()["in_flight"] == 0
            assert flush_reasons(service)["released"] == 0
        finally:
            stale.close()

    def test_refused_handoff_leaves_nothing_in_flight(self):
        service, shards = held_service(
            workers=1, refuse=RuntimeError("pool is gone")
        )

        async def go():
            outcomes = []
            for query in self.QUERIES[:2]:  # separate ticks, never "busy"
                outcomes += await asyncio.gather(
                    service.submit(query), return_exceptions=True
                )
            return outcomes

        outcomes = asyncio.run(go())
        assert [str(outcome) for outcome in outcomes] == ["pool is gone"] * 2
        assert service.stats()["in_flight"] == 0
        assert flush_reasons(service)["idle"] == 2


@pytest.mark.skipif(
    not shared_memory_available(),
    reason="host has no POSIX shared memory (/dev/shm)",
)
def test_refused_handoff_rejects_its_bucket_instead_of_hanging(
    network, objects, monkeypatch
):
    """Regression: a batch the process pool refuses synchronously (here:
    degraded after a torn patch) used to escape the timer-driven flush —
    every caller in the bucket hung and later buckets were dropped."""
    service = build_arm(
        network, objects, "process", max_batch=64, max_delay_ms=1.0
    )
    try:
        (shared,) = service.replicas

        def explode(report, source=None):
            raise RuntimeError("simulated mid-patch failure")

        monkeypatch.setattr(shared, "apply", explode)
        u, v, distance = next(service.executor.network.edges())
        with pytest.raises(RuntimeError, match="mid-patch"):
            service.update_edge_distance(u, v, distance * 2.0)
        # Two predicates -> two buckets in the one timer flush.
        queries = [
            KNNQuery(0, 2, Predicate.of(type="cafe")),
            KNNQuery(9, 2, Predicate.of(type="cafe")),
            KNNQuery(0, 2, Predicate.of(type="fuel")),
        ]

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(
                    *(service.submit(q) for q in queries),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        outcomes = asyncio.run(go())
        assert len(outcomes) == len(queries)
        for outcome in outcomes:
            assert isinstance(outcome, ProcessPoolError)
            assert "degraded" in str(outcome)
    finally:
        service.close()


@pytest.mark.parametrize("arm", list(ARMS))
def test_a_closed_service_says_so(network, objects, arm):
    """Regression: after close() sharded submits silently ran on the
    primary, and a process-mode service reported an open, empty pool."""
    shm_before = set(glob.glob("/dev/shm/*"))
    service = build_arm(network, objects, arm)
    workers = ARMS[arm].get("replicas", 0)
    assert f"replicas={workers}," in repr(service)
    service.close()
    service.close()  # idempotent
    # The closed replica set is kept (it still reports), but holds no
    # shared segment or named semaphore any more.
    assert set(glob.glob("/dev/shm/*")) <= shm_before

    async def go():
        with pytest.raises(ServiceError, match="service closed"):
            await service.submit(KNNQuery(0, 2))

    asyncio.run(go())
    pool = service.replica_pool_stats()
    assert pool["closed"] is True
    assert (pool["workers"], pool["alive"]) == (workers, 0)
    assert f"replicas={workers}," in repr(service)
    assert service.stats()["service"]["submitted"] == 0


class TestEvalHarnessIsolation:
    def test_repro_replicas_does_not_break_engine_builds(
        self, monkeypatch, network, objects
    ):
        """Regression: REPRO_REPLICAS must not leak into the figure
        harness — baseline engines cannot shard, and bare ROAD engines
        must not freeze snapshots the harness never serves from."""
        from repro.eval.runner import build_engine

        monkeypatch.setenv("REPRO_REPLICAS", "2")
        engine = build_engine(
            "NetExp", network, objects, buffer_pages=8
        )
        assert engine.knn(0, 1)
        monkeypatch.setenv("REPRO_ENGINE", "frozen")
        road = build_engine(
            "ROAD", network, objects, road_levels=3, buffer_pages=8
        )
        assert road.stats()["maintenance"]["freezes"] == 1  # its own, once
