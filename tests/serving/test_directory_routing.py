"""Directory routing on multi-directory snapshots: the serving contract.

The edge cases the multi-directory refactor must pin down:

* ``directory=None`` on a multi-directory snapshot resolves to the
  *configured* default — never simply the first directory compiled;
* a detached directory raises :class:`UnknownDirectoryError` through
  every serving surface (charged ROAD, refrozen engine, service);
* admission coalescing keys stay per-(directory, predicate), so two
  directories' identical queries never share one result list;
* ``FrozenRoad.directory_names`` / ``default_directory`` are
  authoritative for the serving layer — in particular,
  ``RoadService.run`` on a named directory survives a snapshot refreeze;
* what a service serves is what is attached to its ROAD: every snapshot
  (the engine's, the process pool's) compiles all of it, attach/detach
  re-freeze the pool's, and a directory-less query resolves through the
  primary executor on ``run``, ``run_many`` and ``submit`` alike.
"""

import asyncio

import pytest

from repro.baselines.road_adapter import ROADEngine
from repro.core.framework import ROAD
from repro.core.frozen_backends import shared_memory_available
from repro.graph.generators import grid_network
from repro.objects.placement import place_uniform
from repro.queries.types import KNNQuery
from repro.serving import (
    RoadService,
    ServiceConfig,
    UnknownDirectoryError,
)
from tests.oracle import serving_snapshots


@pytest.fixture
def network():
    return grid_network(8, 8, seed=3)


@pytest.fixture
def providers(network):
    return {
        "objects": place_uniform(network, 12, seed=8),
        "hotels": place_uniform(network, 9, seed=17),
        "fuel": place_uniform(network, 7, seed=29),
    }


@pytest.fixture
def road(network, providers):
    road = ROAD.build(network.copy(), levels=3)
    for name, objects in providers.items():
        road.attach_objects(objects, name=name)
    return road


def _ids(entries):
    return {entry.object_id for entry in entries}


#: Every replica set a service can run on.
REPLICA_ARMS = {
    "inline": {},
    "thread": {"replicas": 2},
    "process": {"replicas": 1, "replica_mode": "process"},
}


def _arm_config(arm):
    if arm == "process" and not shared_memory_available():
        pytest.skip("host has no POSIX shared memory (/dev/shm)")
    return ServiceConfig(**REPLICA_ARMS[arm])


def _outcome(call):
    """A call's answer, or the typed directory refusal it raised."""
    try:
        return call()
    except UnknownDirectoryError as exc:
        return ("unknown-directory", exc.directory)


def _three_paths(service, query, directory=None):
    """One query's outcome on ``run``, ``run_many`` and ``submit``."""

    async def submit():
        return await service.submit(query, directory=directory)

    return [
        _outcome(lambda: service.run(query, directory=directory)),
        _outcome(lambda: service.run_many([query], directory=directory)[0]),
        _outcome(lambda: asyncio.run(submit())),
    ]


class TestDefaultResolution:
    def test_default_is_configured_not_first_compiled(self, road, providers):
        """freeze(default=...) wins; None never means "first compiled"."""
        snapshot = road.freeze(
            directories=["hotels", "fuel"], default="fuel"
        )
        assert snapshot.directory_names == ["hotels", "fuel"]
        assert snapshot.default_directory == "fuel"
        got = snapshot.execute(KNNQuery(0, 2))
        assert got == snapshot.execute(KNNQuery(0, 2), directory="fuel")
        assert _ids(got) <= set(providers["fuel"].ids())

    def test_objects_preferred_over_compile_order(self, road, providers):
        """Without an explicit default, "objects" beats compile order."""
        snapshot = road.freeze(directories=["hotels", "objects"])
        assert snapshot.directory_names == ["hotels", "objects"]
        assert snapshot.default_directory == "objects"
        assert _ids(snapshot.execute(KNNQuery(0, 2))) <= set(
            providers["objects"].ids()
        )

    def test_default_must_be_compiled(self, road):
        with pytest.raises(UnknownDirectoryError):
            road.freeze(directories=["hotels"], default="fuel")

    def test_directory_and_directories_conflict(self, road):
        with pytest.raises(ValueError):
            road.freeze(directory="hotels", directories=["fuel"])
        with pytest.raises(ValueError):
            road.freeze(directories=[])
        with pytest.raises(ValueError):
            road.freeze(directories=["hotels", "hotels"])

    def test_request_directory_routes_on_multi_snapshot(self, road, providers):
        """The request's ``directory=`` picks the span set on a
        multi-directory snapshot; an omitted one follows the snapshot's
        own default, on every path."""
        service = RoadService(road.freeze(default="fuel"))
        try:
            named = _three_paths(service, KNNQuery(0, 2), "hotels")
            assert named[0] == named[1] == named[2]
            assert _ids(named[0]) <= set(providers["hotels"].ids())
            assert _three_paths(service, KNNQuery(0, 2)) == _three_paths(
                service, KNNQuery(0, 2), "fuel"
            )
        finally:
            service.close()


class TestDetachedDirectory:
    def test_charged_path_raises_after_detach(self, road):
        assert road.execute(KNNQuery(0, 1), directory="fuel")
        road.detach_objects("fuel")
        with pytest.raises(UnknownDirectoryError) as excinfo:
            road.execute(KNNQuery(0, 1), directory="fuel")
        assert excinfo.value.directory == "fuel"

    def test_engine_refreeze_drops_detached_directory(self, network, providers):
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        assert engine.execute(KNNQuery(0, 1), directory="hotels")
        engine.detach_objects("hotels")
        # The stale snapshot was invalidated; the refrozen one must not
        # resurrect the detached provider.
        with pytest.raises(UnknownDirectoryError):
            engine.execute(KNNQuery(0, 1), directory="hotels")
        assert engine.directory_names == ["objects"]

    def test_apply_after_detach_raises(self, road, providers):
        """A snapshot compiled over a now-detached directory cannot be
        patched from the live road anymore — it raises *before touching
        any compiled array*, never serving a half-patched span set."""
        snapshot = road.freeze()
        before = {
            name: snapshot.knn(0, 4, directory=name)
            for name in snapshot.directory_names
        }
        u, v, d = next(iter(road.network.edges()))
        road.detach_objects("fuel")
        report = road.update_edge_distance(u, v, d * 2.0)
        with pytest.raises(KeyError):
            snapshot.apply(report)
        # All-or-nothing: the failed apply left the pre-update state.
        for name, want in before.items():
            assert snapshot.knn(0, 4, directory=name) == want

    def test_submit_rejects_detached_directory(self, network, providers):
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(engine)
        try:
            engine.detach_objects("hotels")

            async def go():
                with pytest.raises(UnknownDirectoryError):
                    await service.submit(KNNQuery(0, 1), directory="hotels")

            asyncio.run(go())
        finally:
            service.close()


class TestCoalescingKeys:
    def test_identical_queries_to_two_directories_never_coalesce(
        self, network, providers
    ):
        """The admission key is (directory, predicate): the same query
        submitted to two directories must execute per directory and hand
        back different answers — never one shared result list."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(
            engine, config=ServiceConfig(mode="frozen", max_batch=512)
        )
        try:
            query = KNNQuery(4, 3)

            async def go():
                return await asyncio.gather(
                    service.submit(query, directory="objects"),
                    service.submit(query, directory="hotels"),
                    service.submit(query, directory="objects"),
                )

            first, hotels, twin = asyncio.run(go())
            counters = service.stats()["service"]
            # The two "objects" submits coalesced; the "hotels" one never
            # joined their bucket.
            assert counters["coalesced"] == 1
            assert counters["batches"] == 2
            assert first is not hotels
            assert first == service.run(query, directory="objects")
            assert hotels == service.run(query, directory="hotels")
            assert _ids(hotels) <= set(providers["hotels"].ids())
            assert twin == first and twin is not first
        finally:
            service.close()


class TestAuthoritativeDirectorySurface:
    def test_snapshot_names_are_authoritative(self, road):
        snapshot = road.freeze()
        assert snapshot.directory_names == ["objects", "hotels", "fuel"]
        assert snapshot.check_directory(None) == "objects"
        assert snapshot.check_directory("fuel") == "fuel"
        with pytest.raises(UnknownDirectoryError):
            snapshot.check_directory("parking")

    def test_engine_surfaces_snapshot_directories(self, network, providers):
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        assert engine.directory_names == ["objects", "hotels"]
        assert engine.default_directory == "objects"
        assert engine.frozen.directory_names == ["objects", "hotels"]

    def test_run_on_named_directory_survives_refreeze(
        self, network, providers
    ):
        """Regression: the rebuilt snapshot used to compile only the
        default directory — queries naming another provider then 404'd
        once the snapshot had been replaced (here by attaching a third
        provider)."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(engine, config=ServiceConfig(mode="frozen"))
        try:
            before = service.run(KNNQuery(0, 2), directory="hotels")
            assert _ids(before) <= set(providers["hotels"].ids())
            stale = engine.frozen
            service.attach_objects(providers["fuel"], name="fuel")
            assert engine.frozen is not stale  # re-frozen at once, not patched
            got = service.run(KNNQuery(0, 2), directory="hotels")
            assert engine.frozen.directory_names == ["objects", "hotels", "fuel"]
            assert got == before
            assert got == engine.road.freeze(directory="hotels").knn(0, 2)
        finally:
            service.close()

    def test_late_attach_inherits_engine_abstract_factory(
        self, network, providers
    ):
        from repro.core.object_abstract import counting_abstract

        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            abstract_factory=counting_abstract,
        )
        engine.attach_objects(providers["hotels"], name="hotels")
        assert (
            engine.road.directory("hotels")._abstract_factory
            is counting_abstract
        )

    def test_default_directory_cannot_be_detached(self, network, providers):
        from repro.baselines.engine import EngineError

        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        with pytest.raises(EngineError, match="cannot be detached"):
            engine.detach_objects("objects")
        assert engine.execute(KNNQuery(0, 1))  # still serving

    def test_service_attach_detach_rebuilds_replicas(
        self, network, providers
    ):
        """Directory membership changes reach the snapshot that serves:
        attach through the service re-freezes it with the new directory
        (a patch cannot grow one), detach drops the directory from it,
        and maintenance keeps working afterwards."""
        service = RoadService.build(
            network.copy(),
            providers["objects"],
            config=ServiceConfig(mode="frozen", levels=2, replicas=2),
        )
        query = KNNQuery(0, 2)
        try:
            assert all(
                replica.directory_names == ["objects"]
                for replica in serving_snapshots(service)
            )
            service.attach_objects(providers["hotels"], name="hotels")
            got = _three_paths(service, query, "hotels")
            assert got == [service.executor.road.execute(query, directory="hotels")] * 3
            assert all(
                replica.directory_names == ["objects", "hotels"]
                for replica in serving_snapshots(service)
            )
            service.detach_objects("hotels")
            assert _three_paths(service, query, "hotels") == [
                ("unknown-directory", "hotels")
            ] * 3
            assert all(
                replica.directory_names == ["objects"]
                for replica in serving_snapshots(service)
            )
            u, v, d = next(iter(service.executor.network.edges()))
            service.update_edge_distance(u, v, d * 1.5)
            assert _three_paths(service, query) == [
                service.executor.road.execute(query)
            ] * 3
        finally:
            service.close()

    def test_detach_of_a_build_time_provider_keeps_shards_consistent(
        self, network, providers
    ):
        """Detaching a provider that was there at build stops it being
        served on every path, thread replicas included; maintenance
        afterwards answers like the charged road."""
        service = RoadService.build(
            network.copy(),
            providers["objects"],
            config=ServiceConfig(mode="frozen", levels=2, replicas=1),
            providers={"hotels": providers["hotels"]},
        )
        road = service.executor.road
        query = KNNQuery(0, 2)
        try:
            assert _three_paths(service, query, "hotels") == [
                road.execute(query, directory="hotels")
            ] * 3
            service.detach_objects("hotels")
            assert _three_paths(service, query, "hotels") == [
                ("unknown-directory", "hotels")
            ] * 3
            u, v, d = next(iter(road.network.edges()))
            service.update_edge_distance(u, v, d * 1.5)
            assert _three_paths(service, query) == [road.execute(query)] * 3
        finally:
            service.close()

    @pytest.mark.parametrize("arm", ["thread", "process"])
    def test_detaching_the_last_directory_rejected_with_shards(
        self, network, providers, arm
    ):
        """Only a replica set holding a snapshot refuses to detach the
        last directory, and it refuses BEFORE mutating the executor: the
        process pool's snapshot cannot compile an empty set, so a failed
        rebuild would strand its workers serving the detached provider.
        Thread replicas hold none, so they detach like inline."""
        from repro.serving import ServiceError

        road = ROAD.build(network.copy(), levels=2)
        road.attach_objects(providers["hotels"], name="hotels")
        service = RoadService(road, config=_arm_config(arm))
        query = KNNQuery(0, 1)
        try:
            if arm == "thread":
                service.detach_objects("hotels")
                assert service.executor.directory_names == []
                assert _three_paths(service, query, "hotels") == [
                    ("unknown-directory", "hotels")
                ] * 3
                return
            with pytest.raises(ServiceError, match="last directory"):
                service.detach_objects("hotels")
            # Nothing mutated: the primary and the workers serve hotels.
            assert service.executor.directory_names == ["hotels"]
            assert serving_snapshots(service)[0].directory_names == ["hotels"]
            assert _three_paths(service, query, "hotels") == [
                road.execute(query, directory="hotels")
            ] * 3
        finally:
            service.close()

    def test_directory_management_needs_a_road_executor(
        self, network, providers
    ):
        from repro.baselines import NetworkExpansionEngine
        from repro.serving import ServiceError

        engine = NetworkExpansionEngine(network.copy(), providers["objects"])
        service = RoadService(engine)
        try:
            with pytest.raises(ServiceError, match="does not manage"):
                service.attach_objects(providers["hotels"], name="hotels")
            with pytest.raises(ServiceError, match="does not manage"):
                service.detach_objects("objects")
        finally:
            service.close()

    def test_detach_guard_never_compiles_a_doomed_snapshot(
        self, network, providers
    ):
        """Regression: a service-level detach must not look names up
        through the serving snapshot — each membership change freezes
        exactly once, inside the engine's own attach or detach."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(engine, config=ServiceConfig(mode="frozen"))
        try:
            freezes = engine.stats()["maintenance"]["freezes"]
            service.attach_objects(providers["fuel"], name="fuel")
            assert engine.stats()["maintenance"]["freezes"] == freezes + 1
            service.detach_objects("hotels")
            assert engine.stats()["maintenance"]["freezes"] == freezes + 2
            assert engine.frozen.directory_names == ["objects", "fuel"]
        finally:
            service.close()

    def test_bare_road_detach_keeps_shards_consistent(self, road):
        """Thread replicas over a bare ROAD serve its charged path, so
        they follow its attached set on every path."""
        service = RoadService(road, config=ServiceConfig(replicas=1))
        query = KNNQuery(0, 2)
        try:
            assert _three_paths(service, query, "hotels") == [
                road.execute(query, directory="hotels")
            ] * 3
            service.detach_objects("hotels")
            assert _three_paths(service, query, "hotels") == [
                ("unknown-directory", "hotels")
            ] * 3
            u, v, d = next(iter(road.network.edges()))
            service.update_edge_distance(u, v, d * 1.5)
            assert _three_paths(service, query) == [road.execute(query)] * 3
        finally:
            service.close()

    def test_bare_road_attach_rebuilds_shards(self, network, providers):
        road = ROAD.build(network.copy(), levels=2)
        road.attach_objects(providers["objects"])
        service = RoadService(road, config=ServiceConfig(replicas=1))
        query = KNNQuery(0, 2)
        try:
            assert _three_paths(service, query, "hotels") == [
                ("unknown-directory", "hotels")
            ] * 3
            service.attach_objects(providers["hotels"], name="hotels")
            assert _three_paths(service, query, "hotels") == [
                road.execute(query, directory="hotels")
            ] * 3
        finally:
            service.close()

    @pytest.mark.parametrize("arm", REPLICA_ARMS)
    def test_named_providers_only_replicas_need_explicit_directory(
        self, network, providers, arm
    ):
        """A road lacking ``objects`` serves its named providers on every
        replica set, and refuses a directory-less query the same typed
        way on ``run`` and ``submit`` — a shard snapshot's own default
        (its first compiled name) never answers in the primary's place."""
        road = ROAD.build(network.copy(), levels=2)
        road.attach_objects(providers["hotels"], name="hotels")
        service = RoadService(road, config=_arm_config(arm))
        try:
            assert _three_paths(service, KNNQuery(0, 2)) == [
                ("unknown-directory", "objects")
            ] * 3
            assert _three_paths(service, KNNQuery(0, 2), "hotels") == [
                road.execute(KNNQuery(0, 2), directory="hotels")
            ] * 3
        finally:
            service.close()

    @pytest.mark.parametrize("arm", REPLICA_ARMS)
    def test_directory_less_queries_agree_on_every_path(
        self, road, providers, arm
    ):
        """``run``, ``run_many`` and ``submit`` resolve an omitted
        directory identically — the same answer or the same typed
        refusal — before and after attach/detach, on every replica set."""
        for name in ("hotels", "fuel"):
            road.detach_objects(name)
        service = RoadService(road, config=_arm_config(arm))
        query = KNNQuery(0, 2)
        try:
            served = [road.execute(query)] * 3
            assert _three_paths(service, query) == served
            service.attach_objects(providers["hotels"], name="hotels")
            assert _three_paths(service, query) == served
            assert _three_paths(service, query, "hotels") == [
                road.execute(query, directory="hotels")
            ] * 3
            service.detach_objects("objects")  # a bare ROAD lets it go
            assert _three_paths(service, query) == [
                ("unknown-directory", "objects")
            ] * 3
            assert _three_paths(service, query, "hotels") == [
                road.execute(query, directory="hotels")
            ] * 3
            service.attach_objects(providers["objects"], name="objects")
            assert _three_paths(service, query) == served
        finally:
            service.close()
