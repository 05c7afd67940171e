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
  ``RoadService.run`` on a named directory survives a snapshot refreeze.
"""

import asyncio

import pytest

from repro.baselines.road_adapter import ROADEngine
from repro.core.framework import ROAD
from repro.graph.generators import grid_network
from repro.objects.placement import place_uniform
from repro.queries.types import KNNQuery
from repro.serving import (
    RoadService,
    ServiceConfig,
    UnknownDirectoryError,
)


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

    def test_service_config_directory_routes_on_multi_snapshot(
        self, road, providers
    ):
        """A service's config.directory picks the span set on a
        multi-directory snapshot; directory=None submits follow it."""
        snapshot = road.freeze()
        service = RoadService(
            snapshot, config=ServiceConfig(directory="hotels")
        )
        try:
            got = service.run(KNNQuery(0, 2))
            assert _ids(got) <= set(providers["hotels"].ids())

            async def go():
                return await service.submit(KNNQuery(0, 2))

            assert asyncio.run(go()) == got
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
        """Regression: the lazily rebuilt snapshot used to compile only
        the default directory — a service configured for a named
        provider then 404'd once its snapshot had been dropped (here by
        attaching another provider)."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(
            engine,
            config=ServiceConfig(mode="frozen", directory="hotels"),
        )
        try:
            before = service.run(KNNQuery(0, 2))
            assert _ids(before) <= set(providers["hotels"].ids())
            service.attach_objects(providers["fuel"], name="fuel")
            assert engine.frozen is None  # snapshot dropped, not patched
            got = service.run(KNNQuery(0, 2))  # lazily re-frozen
            assert engine.frozen is not None
            assert engine.frozen.directory_names == ["objects", "hotels", "fuel"]
            assert got == before
            assert got == engine.road.freeze(directory="hotels").knn(0, 2)
        finally:
            service.close()

    def test_explicit_directories_knob_pins_compile_set(
        self, network, providers
    ):
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
            directories=["objects"],
        )
        assert engine.frozen.directory_names == ["objects"]
        with pytest.raises(UnknownDirectoryError):
            engine.execute(KNNQuery(0, 1), directory="hotels")

    def test_pinned_set_restricts_charged_mode_too(self, network, providers):
        """Regression: the pinned set must hold in both modes — the
        charged road physically serves every attached directory, but an
        unpinned name answering in charged mode while frozen mode 404s
        would make the modes diverge on the same query."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="charged",
            providers={"hotels": providers["hotels"]},
            directories=["objects"],
        )
        assert engine.directory_names == ["objects"]
        with pytest.raises(UnknownDirectoryError):
            engine.execute(KNNQuery(0, 1), directory="hotels")
        # ... and on the batch path, which forwards wholesale.
        with pytest.raises(UnknownDirectoryError):
            engine.execute_many([KNNQuery(0, 1)], directory="hotels")

    def test_blank_directories_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIRECTORIES", " , ,")
        with pytest.raises(ValueError, match="at least one"):
            ServiceConfig.from_env()

    def test_pinned_config_restricts_bare_executor_sync_path(
        self, road, providers
    ):
        """Regression: a pinned ServiceConfig.directories must restrict
        the sync path of a bare executor too — otherwise run() answers
        from a directory the replica shards 404 on."""
        service = RoadService(
            road, config=ServiceConfig(directories=("objects",))
        )
        with pytest.raises(UnknownDirectoryError):
            service.run(KNNQuery(0, 1), directory="hotels")
        assert service.run(KNNQuery(0, 1), directory="objects")
        service.close()
        # The implicit default faces the same restriction: a pinned set
        # that excludes the executor's default 404s directory-less runs
        # instead of silently serving the unpinned default.
        service = RoadService(
            road, config=ServiceConfig(directories=("hotels",))
        )
        with pytest.raises(UnknownDirectoryError):
            service.run(KNNQuery(0, 1))
        assert service.run(KNNQuery(0, 1), directory="hotels")
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

    def test_unknown_directories_knob_rejected(self, network, providers):
        from repro.baselines.engine import EngineError

        with pytest.raises(EngineError):
            ROADEngine(
                network.copy(),
                providers["objects"],
                levels=2,
                directories=["parking"],
            )
        with pytest.raises(EngineError, match="twice"):
            ROADEngine(
                network.copy(),
                providers["objects"],
                levels=2,
                directories=["objects", "objects"],
            )
        with pytest.raises(ValueError, match="twice"):
            ServiceConfig(directories=("objects", "objects"))

    def test_detaching_serving_directory_rejected_without_shards(
        self, network, providers
    ):
        """The guard holds with replicas=0 too: a detached serving
        directory would break every later run/submit, so it fails fast
        just like the sharded case."""
        from repro.serving import ServiceError

        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(
            engine, config=ServiceConfig(mode="frozen", directory="hotels")
        )
        try:
            with pytest.raises(ServiceError, match="serving directory"):
                service.detach_objects("hotels")
            assert service.run(KNNQuery(0, 1))  # still serving hotels
        finally:
            service.close()

    def test_pinned_directories_must_include_default(
        self, network, providers
    ):
        """Regression: a pinned set without "objects" would make frozen
        and charged modes answer directory-less queries from different
        providers — rejected at construction instead."""
        from repro.baselines.engine import EngineError

        with pytest.raises(EngineError, match="default directory"):
            ROADEngine(
                network.copy(),
                providers["objects"],
                levels=2,
                providers={"hotels": providers["hotels"]},
                directories=["hotels"],
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
        """Directory membership changes reach the shards: attach through
        the service re-freezes them (patch-broadcast cannot grow a
        directory), detach drops it everywhere, and maintenance keeps
        working afterwards."""
        service = RoadService.build(
            network.copy(),
            providers["objects"],
            config=ServiceConfig(mode="frozen", levels=2, replicas=2),
        )
        try:
            assert all(
                replica.directory_names == ["objects"]
                for replica in service.replicas
            )
            service.attach_objects(providers["hotels"], name="hotels")
            assert all(
                replica.directory_names == ["objects", "hotels"]
                for replica in service.replicas
            )
            got = service.run(KNNQuery(0, 2), directory="hotels")
            assert _ids(got) <= set(providers["hotels"].ids())
            service.detach_objects("hotels")
            assert all(
                replica.directory_names == ["objects"]
                for replica in service.replicas
            )
            # The broadcast path survives the membership change.
            u, v, d = next(iter(service.executor.network.edges()))
            service.update_edge_distance(u, v, d * 1.5)
            assert service.run(KNNQuery(0, 2)) == service.executor.execute(
                KNNQuery(0, 2)
            )
        finally:
            service.close()

    def test_detach_with_pinned_directories_keeps_shards_consistent(
        self, network, providers
    ):
        """Regression: shards must re-freeze from the executor's *live*
        directory knob, not the config's snapshot-in-time copy — a
        pinned-set detach used to crash the rebuild and strand the
        shards on the detached provider."""
        service = RoadService.build(
            network.copy(),
            providers["objects"],
            config=ServiceConfig(
                mode="frozen", levels=2, replicas=1,
                directories=("objects", "hotels"),
            ),
            providers={"hotels": providers["hotels"]},
        )
        try:
            assert service.replicas[0].directory_names == [
                "objects", "hotels",
            ]
            service.detach_objects("hotels")
            assert service.replicas[0].directory_names == ["objects"]
            u, v, d = next(iter(service.executor.network.edges()))
            service.update_edge_distance(u, v, d * 1.5)
            assert service.run(KNNQuery(0, 2)) == service.executor.execute(
                KNNQuery(0, 2)
            )
        finally:
            service.close()

    def test_detaching_the_serving_directory_rejected_with_shards(
        self, network, providers
    ):
        """Regression: the detach must fail BEFORE mutating the executor —
        otherwise stale shards keep serving the detached provider while
        the primary raises on it."""
        from repro.serving import ServiceError

        service = RoadService.build(
            network.copy(),
            providers["objects"],
            config=ServiceConfig(
                mode="frozen", levels=2, replicas=1, directory="hotels"
            ),
            providers={"hotels": providers["hotels"]},
        )
        try:
            with pytest.raises(ServiceError, match="serving directory"):
                service.detach_objects("hotels")
            # Nothing mutated: primary and shards still serve hotels.
            assert "hotels" in service.executor.directory_names
            assert service.run(KNNQuery(0, 1))
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

    def test_detach_outside_pinned_set_keeps_snapshot(
        self, network, providers
    ):
        """A pinned set that never compiled the detached provider keeps
        its snapshot — no refreeze for an unchanged compile set."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
            directories=["objects"],
        )
        snapshot = engine.frozen
        assert snapshot is not None
        engine.detach_objects("hotels")
        assert engine.frozen is snapshot  # untouched, still serving

    def test_detach_guard_never_compiles_a_doomed_snapshot(
        self, network, providers
    ):
        """Regression: the serving-directory guard must not resolve
        through the lazily-freezing serving object — with an invalidated
        snapshot that would pay a full compile the detach immediately
        invalidates again."""
        engine = ROADEngine(
            network.copy(),
            providers["objects"],
            levels=2,
            mode="frozen",
            providers={"hotels": providers["hotels"]},
        )
        service = RoadService(engine, config=ServiceConfig(mode="frozen"))
        try:
            service.attach_objects(providers["fuel"], name="fuel")
            assert engine.frozen is None  # invalidated, not yet rebuilt
            freezes = engine.stats()["maintenance"]["freezes"]
            service.detach_objects("hotels")
            assert engine.stats()["maintenance"]["freezes"] == freezes
        finally:
            service.close()

    def test_bare_road_pinned_detach_keeps_shards_consistent(
        self, network, providers
    ):
        """Regression: with a bare ROAD executor (no live directories
        knob) and a pinned config set, detach must rebuild the shards
        from the directories still attached — not crash on the stale
        config tuple and strand shards on the detached provider."""
        from repro.core.framework import ROAD

        road = ROAD.build(network.copy(), levels=2)
        for name, objects in providers.items():
            road.attach_objects(objects, name=name)
        service = RoadService(
            road,
            config=ServiceConfig(
                replicas=1, directories=("objects", "hotels")
            ),
        )
        try:
            assert service.replicas[0].directory_names == [
                "objects", "hotels",
            ]
            service.detach_objects("hotels")
            assert service.replicas[0].directory_names == ["objects"]
            u, v, d = next(iter(road.network.edges()))
            service.update_edge_distance(u, v, d * 1.5)
            assert service.run(KNNQuery(0, 2)) == road.execute(KNNQuery(0, 2))
        finally:
            service.close()

    def test_bare_road_pinned_attach_rebuilds_shards(
        self, network, providers
    ):
        """Regression: on a bare executor the effective shard set is
        pinned ∩ attached — attaching a pinned-but-absent provider grows
        it, so the shards must be re-frozen, not skipped."""
        import asyncio

        road = ROAD.build(network.copy(), levels=2)
        road.attach_objects(providers["objects"])
        service = RoadService(
            road,
            config=ServiceConfig(
                replicas=1, directories=("objects", "hotels")
            ),
        )
        try:
            assert service.replicas[0].directory_names == ["objects"]
            service.attach_objects(providers["hotels"], name="hotels")
            assert service.replicas[0].directory_names == [
                "objects", "hotels",
            ]

            async def go():
                return await service.submit(
                    KNNQuery(0, 2), directory="hotels"
                )

            assert asyncio.run(go()) == service.run(
                KNNQuery(0, 2), directory="hotels"
            )
        finally:
            service.close()

    def test_named_providers_only_replicas_need_explicit_directory(
        self, network, providers
    ):
        """A replica service over a road with only named providers fails
        with a clear ServiceError (set ServiceConfig.directory), not a
        deep UnknownDirectoryError about the never-attached default."""
        from repro.serving import ServiceError

        road = ROAD.build(network.copy(), levels=2)
        road.attach_objects(providers["hotels"], name="hotels")
        with pytest.raises(ServiceError, match="do not compile"):
            RoadService(road, config=ServiceConfig(replicas=1))
        # Naming the serving directory makes the same shape work.
        service = RoadService(
            road, config=ServiceConfig(replicas=1, directory="hotels")
        )
        try:
            assert service.run(KNNQuery(0, 2))
        finally:
            service.close()

    def test_replica_default_must_be_compiled(self, network, providers):
        """Regression: a pinned shard set that excludes the resolved
        serving directory fails with a clear ServiceError, not a deep
        UnknownDirectoryError naming an unconfigured directory."""
        from repro.core.framework import ROAD
        from repro.serving import ServiceError

        road = ROAD.build(network.copy(), levels=2)
        for name, objects in providers.items():
            road.attach_objects(objects, name=name)
        with pytest.raises(ServiceError, match="do not compile"):
            RoadService(
                road,
                config=ServiceConfig(
                    replicas=1, directories=("hotels", "fuel")
                ),
            )
