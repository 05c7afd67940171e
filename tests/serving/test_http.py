"""The HTTP serving edge: wire round-trips, typed statuses, health.

Exercises :class:`repro.serving.http.RoadServiceApp` in process (ASGI
calls, no sockets) against a real :class:`RoadService`:

* every declared query class round-trips through JSON and answers
  byte-identical to the sync primary (parametrised over
  ``QUERY_TYPES``, like ``tests/serving/test_dispatch.py``),
* errors map to the contract statuses (malformed 400 — an unknown
  query field included —, unknown directory 404, wrong method 405,
  unknown route 404),
* ``POST /maintenance`` rides the patch-broadcast path and answers with
  the report kind,
* ``/metrics`` scrapes the service registry, ``/healthz`` grades the
  replica pool (ok / degraded / unhealthy) per the PR 7 containment
  contract,
* the built-in HTTP/1.1 parser serves pipelined keep-alive requests and
  rejects what it does not speak (chunked bodies).
"""

import asyncio
import json

import pytest

from repro.core.framework import ROAD
from repro.core.frozen_backends import shared_memory_available
from repro.graph.generators import grid_network
from repro.objects.placement import place_uniform
from repro.queries.types import QUERY_TYPES, KNNQuery, RangeQuery
from repro.queries.writes import WRITE_TYPES
from repro.serving import RoadService, ServiceConfig
from repro.serving.http import (
    RoadServiceApp,
    _handle_connection,
    _parser,
    main,
)
from repro.serving.wire import (
    WireError,
    decode_query,
    decode_result,
    decode_write,
    encode_query,
    encode_write,
)
from tests.oracle import QUERY_SAMPLES, WRITE_SAMPLES, serving_snapshots

#: Queries whose keys are not all fields of their kind: a misspelt
#: predicate, and a predicate on the predicate-free OD matrix.  Each was
#: once decoded with the key dropped, so the query ran unfiltered.
UNKNOWN_FIELDS = [
    {"type": "knn", "node": 0, "k": 5, "predicat": {"type": "a"}},
    {"type": "od_matrix", "sources": [0], "targets": [9],
     "predicate": {"type": "a"}},
]


def call(app, method, path, payload=None, raw=None):
    """One in-process ASGI request: (status, decoded JSON | bytes)."""
    if raw is None:
        raw = b"" if payload is None else json.dumps(payload).encode()
    messages = [{"type": "http.request", "body": raw, "more_body": False}]
    out = {"status": 0, "type": "", "body": b""}

    async def receive():
        if messages:
            return messages.pop(0)
        return {"type": "http.disconnect"}

    async def send(message):
        if message["type"] == "http.response.start":
            out["status"] = message["status"]
            out["type"] = dict(message["headers"])[b"content-type"].decode()
        else:
            out["body"] += message.get("body", b"")

    async def go():
        await app({"type": "http", "method": method, "path": path},
                  receive, send)

    asyncio.run(go())
    if out["type"].startswith("application/json"):
        return out["status"], json.loads(out["body"])
    return out["status"], out["body"]


@pytest.fixture(scope="module")
def setting():
    network = grid_network(8, 8, seed=13)
    objects = place_uniform(
        network, 16, seed=5, attr_choices={"type": ["a", "b"]}
    )
    service = RoadService.build(
        network.copy(), objects,
        config=ServiceConfig(
            mode="frozen", levels=3, replicas=2,
            max_batch=8, max_delay_ms=0.5,
        ),
    )
    yield service, RoadServiceApp(service)
    service.close()


class TestWireCodecs:
    def test_every_registered_type_has_a_sample(self):
        assert set(QUERY_SAMPLES) == set(QUERY_TYPES)
        assert len({t.kind for t in QUERY_TYPES}) == len(QUERY_TYPES)
        assert set(WRITE_SAMPLES) == set(WRITE_TYPES)
        assert len({t.kind for t in WRITE_TYPES}) == len(WRITE_TYPES)

    @pytest.mark.parametrize(
        "query_type", QUERY_TYPES, ids=lambda t: t.__name__
    )
    def test_json_round_trip(self, query_type):
        query = QUERY_SAMPLES[query_type]
        payload = json.loads(json.dumps(encode_query(query)))
        assert decode_query(payload) == query

    @pytest.mark.parametrize(
        "write_type", WRITE_TYPES, ids=lambda t: t.__name__
    )
    def test_write_json_round_trip(self, write_type):
        write = WRITE_SAMPLES[write_type]
        payload = json.loads(json.dumps(encode_write(write)))
        assert payload["op"] == write_type.kind
        assert decode_write(payload) == write

    def test_unconstrained_predicate_is_omitted(self):
        assert "predicate" not in encode_query(RangeQuery(0, 10.0))

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {"type": "warp", "node": 0},
            {"type": "knn", "node": 0},  # k missing
            {"type": "knn", "node": 0, "k": True},  # bool is not an int
            {"type": "knn", "node": 0, "k": 0},  # engine-side bound
            {"type": "range", "node": 0, "radius": "far"},
            {"type": "aggregate_knn", "nodes": [], "k": 1},
            {"type": "aggregate_knn", "nodes": [0], "k": 1, "agg": "mode"},
            {"type": "od_matrix", "sources": [], "targets": [0]},
            {"type": "od_matrix", "sources": "0", "targets": [0]},
            {"type": "od_matrix", "sources": [0, True], "targets": [0]},
            {"type": "service_area", "node": 0, "breaks": []},
            {"type": "service_area", "node": 0, "breaks": [100.0, "far"]},
            {"type": "service_area", "node": 0, "breaks": [-1.0]},
            {"type": "route_knn", "path": [], "k": 1},
            {"type": "route_knn", "path": [0, 1], "k": 0},
        ],
    )
    def test_malformed_payloads_raise_wire_errors(self, payload):
        with pytest.raises((WireError, ValueError)):
            decode_query(payload)

    @pytest.mark.parametrize("payload", UNKNOWN_FIELDS)
    def test_unknown_fields_raise_wire_errors(self, payload):
        with pytest.raises(WireError, match="query has no field 'predicat"):
            decode_query(payload)

    @pytest.mark.parametrize(
        "breaks", [[float("nan")], [100.0, float("inf")], [-float("inf")]]
    )
    def test_non_finite_breaks_are_refused_by_the_decoder(self, breaks):
        # json.loads takes the NaN / Infinity literals json.dumps emits.
        payload = json.loads(json.dumps(
            {"type": "service_area", "node": 0, "breaks": breaks}
        ))
        with pytest.raises(WireError, match="must hold finite numbers"):
            decode_query(payload)


class TestDeclaredWrites:
    """Each declared write runs through the ROAD method its ``kind``
    names and reports under that kind; the wire refuses any other op."""

    def test_each_write_runs_the_method_its_kind_names(self):
        network = grid_network(8, 8, seed=13)
        road = ROAD.build(network, levels=2, fanout=4)
        road.attach_objects(place_uniform(network, 8, seed=5))
        for write_type, write in WRITE_SAMPLES.items():
            assert callable(getattr(ROAD, write_type.kind, None)), write_type
            report = road.write(write)
            assert report.kind == write_type.kind
            assert road.last_report is report
        with pytest.raises(TypeError, match="applies no write"):
            road.write(KNNQuery(0, 1))

    def test_unknown_op_lists_the_declared_kinds(self):
        with pytest.raises(WireError, match="unknown write op 'reticulate'") as info:
            decode_write({"op": "reticulate"})
        for write_type in WRITE_TYPES:
            assert write_type.kind in str(info.value)


class TestQueryRoute:
    @pytest.mark.parametrize(
        "query_type", QUERY_TYPES, ids=lambda t: t.__name__
    )
    def test_single_query_matches_the_sync_primary(self, setting, query_type):
        service, app = setting
        query = QUERY_SAMPLES[query_type]
        status, body = call(
            app, "POST", "/query", {"query": encode_query(query)}
        )
        assert status == 200
        assert decode_result(body["result"]) == service.run_many([query])[0]
        assert body["count"] == len(body["result"])

    def test_batch_matches_run_many(self, setting):
        service, app = setting
        queries = [QUERY_SAMPLES[t] for t in QUERY_TYPES]
        status, body = call(
            app, "POST", "/query",
            {"queries": [encode_query(q) for q in queries]},
        )
        assert status == 200
        assert [
            decode_result(item) for item in body["results"]
        ] == service.run_many(queries)

    def test_unknown_directory_is_404(self, setting):
        _, app = setting
        status, body = call(
            app, "POST", "/query",
            {"query": encode_query(KNNQuery(0, 1)), "directory": "nope"},
        )
        assert status == 404
        assert "nope" in body["error"]

    @pytest.mark.parametrize("mode", ["charged", "frozen"])
    def test_unknown_node_is_404(self, mode):
        network = grid_network(8, 8, seed=13)
        service = RoadService.build(
            network, place_uniform(network, 16, seed=5),
            config=ServiceConfig(mode=mode, levels=3),
        )
        try:
            status, body = call(
                RoadServiceApp(service), "POST", "/query",
                {"query": encode_query(KNNQuery(-5, 1))},
            )
            assert status == 404
            assert "holds no node -5" in body["error"]
        finally:
            service.close()

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # neither query nor queries
            {"query": {"type": "knn", "node": 0, "k": 1}, "queries": []},
            {"queries": "not a list"},
            {"query": {"type": "knn", "node": 0, "k": None}},
            {"query": {"type": "knn", "node": 0, "k": 1}, "directory": 7},
        ],
    )
    def test_bad_requests_are_400(self, setting, payload):
        _, app = setting
        status, body = call(app, "POST", "/query", payload)
        assert status == 400
        assert "error" in body

    @pytest.mark.parametrize("payload", UNKNOWN_FIELDS)
    def test_unknown_query_fields_are_400(self, setting, payload):
        _, app = setting
        status, body = call(app, "POST", "/query", {"query": payload})
        assert status == 400
        assert "query has no field 'predicat" in body["error"]

    def test_nan_service_area_break_is_400(self, setting):
        _, app = setting
        status, body = call(
            app, "POST", "/query",
            {"query": {"type": "service_area", "node": 0,
                       "breaks": [150.0, float("nan")]}},
        )
        assert status == 400
        assert "'breaks' must hold finite numbers" in body["error"]

    def test_invalid_json_is_400(self, setting):
        _, app = setting
        status, body = call(app, "POST", "/query", raw=b"{nope")
        assert status == 400
        assert "JSON" in body["error"]

    def test_unknown_route_404_and_wrong_method_405(self, setting):
        _, app = setting
        assert call(app, "GET", "/nope")[0] == 404
        assert call(app, "GET", "/query")[0] == 405
        assert call(app, "POST", "/metrics")[0] == 405


class TestMaintenanceRoute:
    def test_edge_patch_reports_kind_and_broadcasts(self, setting):
        service, app = setting
        u, v, dist = sorted(service.executor.network.edges())[0]
        status, body = call(
            app, "POST", "/maintenance",
            {"op": "update_edge_distance", "u": u, "v": v,
             "distance": dist * 1.25},
        )
        assert status == 200
        assert body == {
            "op": "update_edge_distance", "ok": True,
            "kind": "update_edge_distance", "structural": False,
        }
        # The patch reached the shards: async answers == maintained primary.
        queries = [QUERY_SAMPLES[t] for t in QUERY_TYPES]
        status, got = call(
            app, "POST", "/query",
            {"queries": [encode_query(q) for q in queries]},
        )
        assert status == 200
        assert [
            decode_result(item) for item in got["results"]
        ] == service.run_many(queries)

    def test_insert_then_delete_object(self, setting):
        service, app = setting
        u, v, _ = sorted(service.executor.network.edges())[0]
        object_id = 9_000
        status, body = call(
            app, "POST", "/maintenance",
            {"op": "insert_object",
             "object": {"object_id": object_id, "edge": [u, v],
                        "delta": 0.0, "attrs": {"type": "a"}}},
        )
        assert (status, body["ok"]) == (200, True)
        status, _ = call(
            app, "POST", "/maintenance",
            {"op": "delete_object", "object_id": object_id},
        )
        assert status == 200

    def test_unknown_object_id_is_400(self, setting):
        _, app = setting
        status, body = call(
            app, "POST", "/maintenance",
            {"op": "delete_object", "object_id": 123_456_789},
        )
        assert status == 400
        assert "not present" in body["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "reticulate"},
            {"op": "update_edge_distance", "u": 0},  # v missing
            {"op": "update_edge_distance", "u": 0, "v": 1,
             "distance": "near"},
            # json.loads takes the NaN / Infinity literals json.dumps emits.
            {"op": "update_edge_distance", "u": 0, "v": 1,
             "distance": float("nan")},
            {"op": "update_edge_distance", "u": 0, "v": 1,
             "distance": float("inf")},
            {"op": "add_edge", "u": 0, "v": 9, "distance": float("inf")},
            {"op": "update_edge_distance", "u": True, "v": 1,
             "distance": 1.0},  # a JSON boolean is not a node id
            {"op": "insert_object", "object": 3},
            {"op": "insert_object", "object": {"object_id": 9,
             "edge": [0, 1], "delta": float("nan")}},
            [{"op": "delete_object", "object_id": 0}],  # not an object
            # Typed refusals of the maintenance layer, not 500s.
            {"op": "update_edge_distance", "u": 0, "v": 1, "distance": -1.0},
            {"op": "update_edge_distance", "u": 0, "v": 1, "distance": 0.0},
            {"op": "add_edge", "u": 0, "v": 1, "distance": 1.0},  # exists
            {"op": "add_edge", "u": 0, "v": 9, "distance": 0.0},
            {"op": "update_edge_distance", "u": 0, "v": 63, "distance": 1.0},
            {"op": "add_edge", "u": 0, "v": 0, "distance": 1.0},
            {"op": "remove_edge", "u": 0, "v": 63},
            {"op": "insert_object", "object": {"object_id": 1,
             "edge": [0], "delta": 0.0}},
            {"op": "insert_object", "object": {"object_id": 1,
             "edge": [0, 1], "delta": 0.0, "attrs": {"type": 3}}},
            # Refused by the Association Directory: no such edge, and an
            # offset beyond the edge's length.
            {"op": "insert_object", "object": {"object_id": 9,
             "edge": [0, 0], "delta": 0.0}},
            {"op": "insert_object", "object": {"object_id": 9,
             "edge": [0, 1], "delta": 1e9}},
            {"op": "insert_object", "object": {"object_id": 9,
             "edge": [0, 1], "delta": -1.0}},
            # Keys no write declares: each was once dropped, so the
            # write ran on the default directory or without attributes.
            {"op": "update_edge_distance", "u": 0, "v": 1,
             "distance": 50.0, "distanse": 1.0},
            {"op": "insert_object", "object": {"object_id": 9_001,
             "edge": [0, 1], "delta": 0.0, "attr": {"type": "a"}}},
            {"op": "update_edge_distance", "u": 0, "v": 1,
             "distance": 50.0, "directory": "objects"},
            {"op": "add_edge", "u": 0, "v": 9, "distance": 1.0,
             "directory": "objects"},
            {"op": "remove_edge", "u": 62, "v": 63, "directory": "objects"},
        ],
    )
    def test_bad_maintenance_is_400(self, setting, payload):
        _assert_refused(*setting, payload)

    @pytest.mark.parametrize(
        "make",
        [
            # An id the directory already holds.
            lambda obj: {"op": "insert_object", "object": {
                "object_id": obj.object_id, "edge": list(obj.edge),
                "delta": 0.0}},
            # The edge an object sits on.
            lambda obj: {"op": "remove_edge",
                         "u": obj.edge[0], "v": obj.edge[1]},
            # An update replaces the attributes: without 'attrs' it
            # would wipe them.
            lambda obj: {"op": "update_object_attrs",
                         "object_id": obj.object_id},
            # A misspelt directory must not fall through to the default.
            lambda obj: {"op": "delete_object", "object_id": obj.object_id,
                         "directry": "poi"},
        ],
        ids=["duplicate_id", "occupied_edge", "update_without_attrs",
             "misspelt_directory"],
    )
    def test_write_against_the_present_objects_is_400(self, setting, make):
        service, app = setting
        objects = service.executor.road.directory("objects").objects
        obj = objects.get(objects.ids()[0])
        attrs = dict(obj.attrs)
        assert attrs  # the fixture's objects carry a type
        _assert_refused(service, app, make(obj))
        assert obj.object_id in objects
        assert objects.get(obj.object_id).attrs == attrs


def _assert_refused(service, app, payload):
    """``payload`` answers 400 and changes nothing: not the network,
    not the snapshot that serves."""
    network = service.executor.network
    edges = sorted(network.edges())
    queries = [QUERY_SAMPLES[t] for t in QUERY_TYPES]
    before = service.run_many(queries)
    status, body = call(app, "POST", "/maintenance", payload)
    assert status == 400
    assert "error" in body
    assert sorted(network.edges()) == edges
    assert service.run_many(queries) == before
    for replica in serving_snapshots(service):
        assert replica.execute_many(queries) == before


class TestMetricsRoute:
    def test_scrape_carries_service_and_http_families(self, setting):
        service, app = setting
        call(app, "POST", "/query",
             {"query": encode_query(KNNQuery(0, 2))})
        status, body = call(app, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        assert "# TYPE road_service_submitted_total counter" in text
        assert "# TYPE road_query_latency_ms histogram" in text
        assert 'road_http_requests_total{path="/query"}' in text
        assert 'road_http_responses_total{code="200"}' in text
        assert 'road_replica_pool{field="workers"} 2' in text
        # The kernel's cached ChoosePath results show beside the masks.
        for field in ("path_shared_bytes", "path_table_bytes"):
            assert f'road_mask_cache{{field="{field}"}}' in text
        # And the same numbers surface through stats()["metrics"].
        snapshot = service.stats()["metrics"]
        assert snapshot["road_service_submitted_total"] >= 1
        assert snapshot["road_query_latency_ms"]["count"] >= 1

    def test_one_scrape_takes_one_memory_stats_pass(self, setting, monkeypatch):
        """The three snapshot gauges share one ``memory_stats()`` pass
        per render (on the list backend it walks every boxed element);
        the next render takes a fresh one."""
        from repro.core.frozen import FrozenRoad

        service, _ = setting
        calls = []
        original = FrozenRoad.memory_stats
        monkeypatch.setattr(
            FrozenRoad,
            "memory_stats",
            lambda snapshot: calls.append(snapshot) or original(snapshot),
        )
        text = service.metrics.render()
        assert len(calls) == 1
        for family in (
            "road_directory_resident_bytes",
            "road_mask_cache",
            "road_snapshot_resident_bytes",
        ):
            assert f"# TYPE {family} gauge" in text
        service.metrics.render()
        assert calls == [service.executor.frozen] * 2


class TestHealthz:
    def test_thread_shards_report_ok(self, setting):
        _, app = setting
        status, body = call(app, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert (body["workers"], body["alive"]) == (2, 2)

    def test_unsharded_service_is_ok_with_zero_workers(self):
        network = grid_network(4, 4, seed=1)
        objects = place_uniform(network, 4, seed=2)
        service = RoadService.build(
            network, objects, config=ServiceConfig(mode="frozen", levels=2)
        )
        try:
            status, body = call(
                RoadServiceApp(service), "GET", "/healthz"
            )
            assert (status, body["status"]) == (200, "ok")
            assert body["workers"] == 0
        finally:
            service.close()

    @pytest.mark.parametrize(
        ("pool", "status", "verdict"),
        [
            ({"workers": 2, "alive": 1, "degraded": False,
              "closed": False}, 200, "degraded"),
            ({"workers": 2, "alive": 2, "degraded": True,
              "closed": False}, 503, "unhealthy"),
            ({"workers": 2, "alive": 0, "degraded": False,
              "closed": False}, 503, "unhealthy"),
            ({"workers": 2, "alive": 2, "degraded": False,
              "closed": True}, 503, "unhealthy"),
        ],
    )
    def test_pool_grades(self, setting, monkeypatch, pool, status, verdict):
        service, app = setting
        monkeypatch.setattr(
            service, "replica_pool_stats", lambda: dict(pool)
        )
        got_status, body = call(app, "GET", "/healthz")
        assert (got_status, body["status"]) == (status, verdict)

    @pytest.mark.parametrize(
        "shards",
        [
            {},
            {"replicas": 2},
            pytest.param(
                {"replicas": 1, "replica_mode": "process"},
                marks=pytest.mark.skipif(
                    not shared_memory_available(),
                    reason="host has no POSIX shared memory (/dev/shm)",
                ),
            ),
        ],
        ids=["inline", "thread", "process"],
    )
    def test_closed_service_is_unhealthy(self, shards):
        """Regression: a closed process-mode service answered 200 ok."""
        network = grid_network(4, 4, seed=1)
        objects = place_uniform(network, 4, seed=2)
        service = RoadService.build(
            network, objects,
            config=ServiceConfig(mode="frozen", levels=2, **shards),
        )
        app = RoadServiceApp(service)
        assert call(app, "GET", "/healthz")[0] == 200
        service.close()
        status, body = call(app, "GET", "/healthz")
        assert (status, body["status"]) == (503, "unhealthy")
        assert body["closed"] is True
        assert body["workers"] == shards.get("replicas", 0)

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="host has no POSIX shared memory (/dev/shm)",
    )
    def test_torn_patch_degrades_process_pool_healthz(self, monkeypatch):
        """A failed mid-patch apply flips /healthz to 503 for real."""
        network = grid_network(6, 6, seed=3)
        objects = place_uniform(
            network, 8, seed=4, attr_choices={"type": ["a"]}
        )
        service = RoadService.build(
            network, objects,
            config=ServiceConfig(
                mode="frozen", levels=2, replicas=2, replica_mode="process"
            ),
        )
        app = RoadServiceApp(service)
        try:
            assert call(app, "GET", "/healthz")[0] == 200
            # Process mode: the one shared snapshot every worker attaches.
            (shared,) = service.replicas

            def explode(report, source=None):
                raise RuntimeError("simulated mid-patch failure")

            monkeypatch.setattr(shared, "apply", explode)
            status, _ = call(
                app, "POST", "/maintenance",
                {"op": "update_edge_distance", "u": 0, "v": 1,
                 "distance": 1.0},
            )
            assert status == 500  # the patch itself failed loudly
            status, body = call(app, "GET", "/healthz")
            assert (status, body["status"]) == (503, "unhealthy")
            assert body["degraded"] is True
        finally:
            service.close()


class TestCachedServiceLeg:
    """The HTTP edge over a cache-enabled service: report-driven
    invalidation is visible end to end — a previously cached ``POST
    /query`` answer changes the moment ``POST /maintenance`` dirties its
    footprint, and the ``road_cache_*`` families ride ``GET /metrics``."""

    @pytest.fixture
    def cached(self):
        network = grid_network(6, 6, seed=7)
        objects = place_uniform(
            network, 10, seed=11, attr_choices={"type": ["a", "b"]}
        )
        service = RoadService.build(
            network.copy(), objects,
            config=ServiceConfig(
                mode="frozen", levels=2, max_batch=8, max_delay_ms=0.5,
                result_cache=True, cache_budget=32,
            ),
        )
        yield service, RoadServiceApp(service)
        service.close()

    def test_maintenance_refreshes_a_cached_answer(self, cached):
        service, app = cached
        query = KNNQuery(0, 2)
        payload = {"query": encode_query(query)}
        status, before = call(app, "POST", "/query", payload)
        assert status == 200
        # Second request is served out of the cache, byte-identical.
        status, again = call(app, "POST", "/query", payload)
        assert (status, again) == (200, before)
        assert service.stats()["result_cache"]["hits"] >= 1
        # Insert an object at the queried node: the cached answer's
        # footprint contains node 0, so the report must evict it.
        u, v, _ = sorted(service.executor.network.edges())[0]
        assert u == 0
        status, body = call(
            app, "POST", "/maintenance",
            {"op": "insert_object",
             "object": {"object_id": 9_100, "edge": [u, v],
                        "delta": 0.0, "attrs": {"type": "a"}}},
        )
        assert (status, body["ok"]) == (200, True)
        assert service.stats()["result_cache"]["invalidations"] >= 1
        # /healthz stays ok across the invalidation.
        status, health = call(app, "GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")
        # The same request now answers post-patch: the new object sits
        # at network distance 0 from the query node.
        status, after = call(app, "POST", "/query", payload)
        assert status == 200
        assert after != before
        assert decode_result(after["result"]) == service.run_many([query])[0]
        assert decode_result(after["result"])[0].object_id == 9_100
        call(app, "POST", "/maintenance",
             {"op": "delete_object", "object_id": 9_100})

    def test_metrics_scrape_carries_cache_families(self, cached):
        service, app = cached
        payload = {"query": encode_query(KNNQuery(5, 2))}
        call(app, "POST", "/query", payload)
        call(app, "POST", "/query", payload)
        status, body = call(app, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        for name in ("hits", "misses", "evictions", "invalidations"):
            assert f"# TYPE road_cache_{name}_total counter" in text
        counters = service.stats()["result_cache"]
        assert f"road_cache_hits_total {counters['hits']}" in text
        assert "road_cache_hit_ratio" in text
        assert f"road_cache_entries {counters['entries']}" in text

    def test_metrics_scrape_carries_cache_stage_timers(self, cached):
        service, app = cached
        payload = {"query": encode_query(KNNQuery(5, 2))}
        call(app, "POST", "/query", payload)  # miss: split + populate
        call(app, "POST", "/query", payload)  # hit: split only
        u, v, distance = sorted(service.executor.network.edges())[0]
        status, _ = call(
            app, "POST", "/maintenance",
            {"op": "update_edge_distance", "u": u, "v": v,
             "distance": distance * 2.0},
        )
        assert status == 200
        text = call(app, "GET", "/metrics")[1].decode()
        # One observation per dispatched bucket, one per report.
        assert 'road_stage_ms_count{stage="cache"} 2' in text
        assert 'road_stage_ms_count{stage="admit_wait"} 2' in text
        assert "# TYPE road_cache_invalidate_ms histogram" in text
        assert "road_cache_invalidate_ms_count 1" in text


class _Writer:
    """A StreamWriter stand-in collecting what the server would send."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        return None

    def close(self):
        return None

    async def wait_closed(self):
        return None

    @property
    def data(self):
        return b"".join(self.chunks)


def _run_connection(app, payload):
    """Feed raw bytes through the server loop; returns what it wrote."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        writer = _Writer()
        await _handle_connection(app, reader, writer)
        return writer.data

    return asyncio.run(go())


class TestHttp11Parser:
    def test_pipelined_keep_alive_requests(self, setting):
        _, app = setting
        first = b"GET /healthz HTTP/1.1\r\n\r\n"
        second = (
            b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
        )

        data = _run_connection(app, first + second)
        responses = data.split(b"HTTP/1.1 ")
        assert len(responses) == 3  # leading empty split + two replies
        assert responses[1].startswith(b"200 OK")
        assert responses[2].startswith(b"200 OK")
        assert b"road_http_requests_total" in data

    def test_post_body_via_content_length(self, setting):
        service, app = setting
        body = json.dumps(
            {"query": encode_query(KNNQuery(0, 2))}
        ).encode()
        request = (
            b"POST /query HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        head, _, payload = _run_connection(app, request).partition(
            b"\r\n\r\n"
        )
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert decode_result(
            json.loads(payload)["result"]
        ) == service.run_many([KNNQuery(0, 2)])[0]

    def test_chunked_bodies_answer_501(self, setting):
        _, app = setting
        request = (
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        )
        assert _run_connection(app, request).startswith(b"HTTP/1.1 501")

    @pytest.mark.parametrize(
        "value",
        [b"abc", b"-5", b"+5", b"1_000", b"\xb2", b"5\r\nContent-Length: 6"],
    )
    def test_bad_content_length_answers_400(self, setting, value):
        # Whatever int() parses beyond ASCII digits ("-5" would reach
        # readexactly(-5) and die inside the connection task) is refused
        # like "abc", and so is a second header that disagrees.
        _, app = setting
        request = (
            b"POST /query HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
        )
        data = _run_connection(app, request)
        assert data.startswith(b"HTTP/1.1 400")
        assert b"bad content-length" in data

    def test_malformed_request_line_answers_400(self, setting):
        _, app = setting
        data = _run_connection(app, b"BOGUS\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 400")


class TestCommandLine:
    def test_bad_engine_mode_is_a_usage_error(self, capsys):
        """A typo'd mode stops argparse with exit 2 and a usage line,
        not a ``ServiceConfig`` traceback after the demo network built."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--engine-mode", "warp"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.serving.http")
        assert "argument --engine-mode: invalid choice: 'warp'" in err

    def test_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _parser().parse_args(["--backend", "list"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend list" in capsys.readouterr().err
