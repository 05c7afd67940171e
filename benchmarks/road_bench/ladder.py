"""The traced run: per-layer numbers, measured from outside the program.

The first requests of a workload's own stream are replayed one at a time
at every boundary of the request path, outermost first::

    socket  >  RoadServiceApp.__call__  >  service.submit  >  service.run_many  >  execute_many

chunk by chunk, so that machine drift hits every boundary alike.  Each
call is a span (name, request, start, end, enclosing boundary) kept in
memory and written out at the end.  A boundary's *self time* is its
median minus the next-inner boundary's median minus the medians of the
leaf functions it calls (JSON, wire codecs) — raw differences, never
clamped, so they add back up to the outermost median.

Nothing here reaches into the program: every span wraps a call to a
public function, and counts come from ``stats()`` / ``SearchStats``.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import pickle
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from road_bench import fixture, procs, workloads
from road_bench.harness import Checker, RunResult, decode_answers
from road_bench.loadgen import Connection, closed_loop
from road_bench.stats import percentile
from road_bench.workloads import Wire, Workload

#: Boundaries of the request path, outermost first.
RUNGS = ("socket", "asgi", "submit", "run_many", "execute_many")
#: Requests replayed at every boundary before moving to the next chunk.
CHUNK = {
    "interactive_dense": 50,
    "bulk_sparse": 4,
    "analysis_process": 2,
    # One write follows each chunk: the untraced run's reads-per-write.
    "zipf_cached_churn": workloads.POSTS_PER_WRITE,
}
#: Leading queries of the stream whose SearchStats counts are averaged.
#: Fixed, not time-boxed: these counts must repeat exactly.
STATS_QUERIES = 256
#: Share of ``--seconds`` for the untraced burst that the traced socket
#: median is compared with.
BURST_SHARE = 0.2

KERNEL_METRIC = {
    "knn": "core.frozen.knn_us",
    "range": "core.frozen.range_us",
    "od_matrix": "core.multi_source.od_matrix_us",
    "service_area": "core.multi_source.service_area_us",
    "route_knn": "core.multi_source.route_knn_us",
    "aggregate_knn": "core.aggregate.aggregate_knn_us",
}
SEARCH_COUNTS = (
    "nodes_popped",
    "edges_relaxed",
    "shortcuts_taken",
    "rnets_bypassed",
    "rnets_descended",
)
MAINTENANCE_OPS = ("update_edge_distance", "insert_object", "delete_object")

#: Every per-layer metric and its unit.  A traced run prints all of them;
#: one that a workload does not exercise reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "eval.datasets.generate_s": "s",
    "core.framework.build_s": "s",
    "core.frozen.freeze_s": "s",
    "core.frozen.resident_mib": "MiB",
    "core.serialize.save_s": "s",
    "core.serialize.load_s": "s",
    "core.serialize.file_mib": "MiB",
    **{name: "us" for name in KERNEL_METRIC.values()},
    **{f"core.frozen.{name}": "count" for name in SEARCH_COUNTS},
    **{f"core.maintenance.report_us.{op}": "us" for op in MAINTENANCE_OPS},
    "core.frozen.apply_us": "us",
    "serving.service.broadcast_us": "us",
    "serving.service.admit_wait_us": "us",
    "serving.service.submit_overhead_us": "us",
    "serving.service.dispatch_us": "us",
    "serving.service.thread_handoff_us": "us",
    "serving.service.batch_size_mean": "count",
    "serving.service.coalesced_share": "ratio",
    "serving.service.flushes": "count",
    "serving.result_cache.hit_ratio": "ratio",
    "serving.result_cache.evictions": "count",
    "serving.result_cache.invalidations": "count",
    "serving.result_cache.entries": "count",
    "serving.result_cache.hit_us": "us",
    "serving.result_cache.miss_us": "us",
    "serving.result_cache.invalidate_us": "us",
    "serving.process_pool.handoff_us": "us",
    "serving.process_pool.payload_bytes": "bytes",
    "serving.wire.decode_us": "us",
    "serving.wire.encode_us": "us",
    "serving.wire.request_bytes": "bytes",
    "serving.wire.response_bytes": "bytes",
    "serving.http.json_us": "us",
    "serving.http.app_us": "us",
    "serving.http.socket_us": "us",
    "trace.vs_untraced_ratio": "ratio",
    "trace.requests": "count",
}

#: (name, request, start, end, parent)
Span = Tuple[str, int, float, float, Optional[str]]


class Tracer:
    """Spans of one traced run, kept in memory until the end."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []

    def record(
        self, name: str, request: int, start: float, parent: Optional[str]
    ) -> float:
        """Close a span that began at ``start``; returns its end."""
        end = time.perf_counter()
        self.spans.append((name, request, start, end, parent))
        return end

    def add(
        self, name: str, request: int, start: float, end: float, parent: Optional[str]
    ) -> None:
        self.spans.append((name, request, start, end, parent))

    def paired_us(self, name: str) -> Dict[int, float]:
        """Duration by request, for spans that ran once per request."""
        return {
            request: (end - start) * 1e6
            for span, request, start, end, _ in self.spans
            if span == name
        }

    def durations_us(self, name: str) -> List[float]:
        return [
            (end - start) * 1e6
            for span, _, start, end, _ in self.spans
            if span == name
        ]

    def median_us(self, name: str) -> float:
        """Median duration of a span name; 0 when it never ran."""
        durations = self.durations_us(name)
        return statistics.median(durations) if durations else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": self.workload,
            "fields": ["name", "workload", "request", "start", "end", "parent"],
            "spans": [
                [name, self.workload, request, start, end, parent]
                for name, request, start, end, parent in self.spans
            ],
        }
        path.write_text(json.dumps(payload))


def self_times(
    medians: Dict[str, float], leaves: Dict[str, float]
) -> Dict[str, float]:
    """Per-boundary self time from per-boundary medians.

    ``medians`` maps every rung of :data:`RUNGS` to its median;
    ``leaves`` maps a rung to the summed medians of the leaf functions
    that run inside it and in no inner rung.  The innermost rung keeps
    its whole median.  By construction the self times and the leaves sum
    to the outermost median.
    """
    selfs = {}
    for outer, inner in zip(RUNGS, RUNGS[1:]):
        selfs[outer] = medians[outer] - medians[inner] - leaves.get(outer, 0.0)
    selfs[RUNGS[-1]] = medians[RUNGS[-1]] - leaves.get(RUNGS[-1], 0.0)
    return selfs


def fit_hit_miss(rows: Sequence[Tuple[float, int, int]]) -> Tuple[float, float]:
    """Least-squares ``time = hit_cost * hits + miss_cost * misses``.

    ``rows`` are ``(time, hits, misses)`` of batches that mix both; the
    fixed per-batch cost is spread over the batch's queries.  Returns
    ``(0, 0)`` when the batches cannot tell the two apart.
    """
    shh = sum(h * h for _, h, _ in rows)
    smm = sum(m * m for _, _, m in rows)
    shm = sum(h * m for _, h, m in rows)
    sth = sum(t * h for t, h, _ in rows)
    stm = sum(t * m for t, _, m in rows)
    determinant = shh * smm - shm * shm
    if abs(determinant) < 1e-9:
        return 0.0, 0.0
    return (
        (sth * smm - stm * shm) / determinant,
        (stm * shh - sth * shm) / determinant,
    )


async def call_asgi(app: Any, path: str, body: bytes) -> Tuple[int, bytes]:
    """One in-process ASGI ``POST``: (status, response body)."""
    pending = [{"type": "http.request", "body": body, "more_body": False}]
    reply: Dict[str, Any] = {"status": 0, "body": b""}

    async def receive() -> Dict[str, Any]:
        return pending.pop() if pending else {"type": "http.disconnect"}

    async def send(message: Dict[str, Any]) -> None:
        if message["type"] == "http.response.start":
            reply["status"] = message["status"]
        else:
            reply["body"] += message.get("body", b"")

    await app({"type": "http", "method": "POST", "path": path}, receive, send)
    return reply["status"], reply["body"]


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class Ladder:
    """State of one traced run."""

    def __init__(
        self, workload: Workload, *, seed: int, seconds: float, nodes: int
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.nodes = nodes
        self.tracer = Tracer(workload.name)
        self.result = RunResult(workload.name, seed, seconds)
        self.metrics = self.result.metrics
        self.checker = Checker()
        self.facades: List[Any] = []
        self.cache_rows: List[Tuple[float, int, int]] = []
        self.request_bytes: List[int] = []
        self.response_bytes: List[int] = []
        self.payload_bytes: List[int] = []
        self.replayed = 0

    # -- fixture -------------------------------------------------------
    def build(self) -> None:
        """Time the fixture's stages alone, then start the server and
        build the in-process engine side by side."""
        from repro.core.framework import ROAD

        metrics = self.metrics
        self.dataset, seconds = _timed(lambda: fixture.build_dataset(self.nodes))
        metrics["eval.datasets.generate_s"] = (seconds, "s")
        objects, poi = fixture.build_objects(self.dataset.network)

        def build_road() -> Any:
            # Its own copy of the network: maintenance mutates it in place,
            # and the in-process engine below is patched separately.
            road = ROAD.build(
                self.dataset.network.copy(), levels=fixture.LEVELS, fanout=4
            )
            road.attach_objects(objects)
            road.attach_objects(poi, name=fixture.POI_DIRECTORY)
            return road

        self.leaf_road, seconds = _timed(build_road)
        metrics["core.framework.build_s"] = (seconds, "s")
        self.leaf_frozen, seconds = _timed(self.leaf_road.freeze)
        metrics["core.frozen.freeze_s"] = (seconds, "s")
        resident = self.leaf_frozen.memory_stats()["total_bytes"]
        metrics["core.frozen.resident_mib"] = (resident / 2**20, "MiB")

        self.server = procs.Server(self.workload.config, nodes=self.nodes).start()
        self.base = fixture.build_service(self.dataset)
        self.engine = self.base.executor
        self.stream = workloads.generate(
            self.workload, self.dataset, self.seed, self.seconds
        )
        self.server.wait_ready()

    def _facade(self, **config: Any) -> Any:
        """Another ``RoadService`` over the one in-process engine."""
        from repro.serving import RoadService

        service = RoadService(self.engine, config=fixture.service_config(**config))
        self.facades.append(service)
        return service

    def _serialize(self, scratch: Path) -> None:
        from repro.core.serialize import load_snapshot, save_snapshot
        from repro.queries.types import KNNQuery

        scratch.parent.mkdir(parents=True, exist_ok=True)
        try:
            size, seconds = _timed(lambda: save_snapshot(self.leaf_frozen, scratch))
            self.metrics["core.serialize.save_s"] = (seconds, "s")
            self.metrics["core.serialize.file_mib"] = (size / 2**20, "MiB")

            def cold_start() -> Any:
                loaded = load_snapshot(scratch)
                loaded.execute(KNNQuery(0, 1))
                return loaded

            loaded, seconds = _timed(cold_start)
            self.metrics["core.serialize.load_s"] = (seconds, "s")
            loaded.close()
        finally:
            scratch.unlink(missing_ok=True)

    def _search_counts(self) -> None:
        from repro.core.search import SearchStats
        from repro.serving.wire import decode_query

        posts = self.stream.posts[self.stream.warmup_posts :]
        sample = [query for post in posts for query in post][:STATS_QUERIES]
        totals = dict.fromkeys(SEARCH_COUNTS, 0)
        for wire in sample:
            stats = SearchStats()
            self.leaf_frozen.execute(
                decode_query(wire), directory=self.workload.directory, stats=stats
            )
            for name in SEARCH_COUNTS:
                totals[name] += getattr(stats, name)
        for name, total in totals.items():
            self.metrics[f"core.frozen.{name}"] = (total / len(sample), "count")

    # -- the ladder ----------------------------------------------------
    async def _replay(self) -> None:
        from repro.serving.http import RoadServiceApp
        from repro.serving.wire import decode_query

        workload, stream, tracer = self.workload, self.stream, self.tracer
        config = workload.config
        directory = workload.directory
        cached = bool(config.get("result_cache"))
        submit_service = self._facade(**config)
        # With the result cache on, a boundary that shares a cache with
        # another would find the other's answers: each gets its own.
        asgi_service = self._facade(**config) if cached else submit_service
        app = RoadServiceApp(asgi_service)
        inline = (
            self._facade(**{k: v for k, v in config.items() if not k.startswith("replica")})
            if config.get("replica_mode") == "thread" and not cached
            else None
        )
        pool = None
        if config.get("replica_mode") == "process":
            from repro.serving.process_pool import ProcessReplicaPool

            pool = ProcessReplicaPool(
                self.leaf_road.freeze(backend="shm"), workers=1
            )
        shadow = self._shadow_cache() if cached else None
        hits = submit_service.metrics.counter("road_cache_hits_total")
        misses = submit_service.metrics.counter("road_cache_misses_total")
        before = submit_service.stats()
        frozen = self.engine.frozen
        connection = Connection(procs.HOST, self.server.port)
        await connection.open()
        deadline = time.perf_counter() + self.seconds
        chunk = CHUNK[workload.name]
        # The count-based warm-up of the cached workload is not replayed:
        # one rung after another would pay its misses in turn.
        position = stream.warmup_posts
        total = min(position + workload.trace_requests, len(stream.posts))
        writes = 0
        try:
            while position < total and time.perf_counter() < deadline:
                block = range(position, min(position + chunk, total))
                queries = {
                    i: [decode_query(wire) for wire in stream.posts[i]] for i in block
                }
                bodies = {i: stream.requests[i].split(b"\r\n\r\n", 1)[1] for i in block}
                answers: Dict[str, Dict[int, Any]] = {rung: {} for rung in RUNGS}
                for i in block:
                    start = time.perf_counter()
                    try:
                        status, body = await connection.roundtrip(stream.requests[i])
                    finally:
                        tracer.record("socket", i, start, None)
                    answers["socket"][i] = body if status == 200 else None
                for i in block:
                    start = time.perf_counter()
                    status, body = await call_asgi(app, "/query", bodies[i])
                    tracer.record("asgi", i, start, "socket")
                    answers["asgi"][i] = body if status == 200 else None
                for i in block:
                    h0, m0 = hits.value, misses.value
                    start = time.perf_counter()
                    answers["submit"][i] = await self._submit(
                        submit_service, queries[i], directory
                    )
                    tracer.record("submit", i, start, "asgi")
                    spent = (time.perf_counter() - start) * 1e6
                    self.cache_rows.append(
                        (spent, int(hits.value - h0), int(misses.value - m0))
                    )
                if inline is not None:
                    for i in block:
                        start = time.perf_counter()
                        await self._submit(inline, queries[i], directory)
                        tracer.record("submit.inline", i, start, "asgi")
                for i in block:
                    start = time.perf_counter()
                    answers["run_many"][i] = submit_service.run_many(
                        queries[i], directory=directory
                    )
                    tracer.record("run_many", i, start, "submit")
                for i in block:
                    start = time.perf_counter()
                    answers["execute_many"][i] = frozen.execute_many(
                        queries[i], directory=directory
                    )
                    end = tracer.record("execute_many", i, start, "run_many")
                    if len(queries[i]) == 1:
                        kind = stream.posts[i][0]["type"]
                        tracer.add(f"kernel.{kind}", i, start, end, "execute_many")
                for i in block:
                    self._leaves(
                        i,
                        stream.posts[i],
                        queries[i],
                        bodies[i],
                        answers["asgi"][i],
                        answers["execute_many"][i],
                        frozen,
                        pool,
                    )
                    self._cross_check(i, answers)
                position = block.stop
                if stream.maintenance:
                    await self._maintain(
                        writes, connection, submit_service, asgi_service, shadow
                    )
                    writes += 1
            self.replayed = position - stream.warmup_posts
            after = submit_service.stats()
            self._service_counters(before, after)
            await self._burst()
        finally:
            connection.close()
            if pool is not None:
                pool.close()

    @staticmethod
    async def _submit(service: Any, queries: Sequence[Any], directory: str) -> List[Any]:
        if len(queries) == 1:
            return [await service.submit(queries[0], directory=directory)]
        return list(
            await asyncio.gather(
                *(service.submit(query, directory=directory) for query in queries)
            )
        )

    def _leaves(
        self,
        i: int,
        post: Sequence[Wire],
        queries: Sequence[Any],
        body: bytes,
        response: Optional[bytes],
        results: Sequence[Sequence[Any]],
        frozen: Any,
        pool: Any,
    ) -> None:
        """Leaf functions on the payloads of request ``i``."""
        from repro.serving.wire import decode_query, encode_result

        tracer, directory = self.tracer, self.workload.directory
        start = time.perf_counter()
        for wire in post:
            decode_query(wire)
        tracer.record("wire.decode", i, start, "asgi")
        start = time.perf_counter()
        for rows in results:
            encode_result(rows)
        tracer.record("wire.encode", i, start, "asgi")
        reply = json.loads(response) if response else {}
        start = time.perf_counter()
        json.loads(body)
        json.dumps(reply, separators=(",", ":"))
        tracer.record("http.json", i, start, "asgi")
        self.request_bytes.append(len(body))
        self.response_bytes.append(len(response or b""))
        kinds = sorted({wire["type"] for wire in post}) if len(post) > 1 else ()
        for kind in kinds:
            members = [q for wire, q in zip(post, queries) if wire["type"] == kind]
            start = time.perf_counter()
            frozen.execute_many(members, directory=directory)
            spent = time.perf_counter() - start
            # Scaled to one query, so that the median is per query.
            tracer.add(
                f"kernel.{kind}", i, start, start + spent / len(members), "execute_many"
            )
        if pool is not None:
            start = time.perf_counter()
            pooled = pool.submit(list(queries), directory).result(timeout=60.0)
            tracer.record("pool.submit", i, start, "submit")
            start = time.perf_counter()
            pool.frozen.execute_many(queries, directory=directory)
            tracer.record("pool.execute_many", i, start, "pool.submit")
            task = ("batch", i, list(queries), directory, False)
            # Computed, not observed: what pickle makes of the batch and
            # of its rows, the two things that cross the worker's pipes.
            self.payload_bytes.append(
                len(pickle.dumps(task)) + len(pickle.dumps(pooled))
            )

    def _cross_check(self, i: int, answers: Dict[str, Dict[int, Any]]) -> None:
        """Every boundary must give request ``i`` the same answers."""
        count = len(self.stream.posts[i])
        self.checker.attempted += count
        reference = answers["execute_many"][i]
        socket_body, asgi_body = answers["socket"][i], answers["asgi"][i]
        if socket_body is None or asgi_body is None:
            self.checker.failed += count
            return
        try:
            decoded = [decode_answers(socket_body), decode_answers(asgi_body)]
        except (ValueError, KeyError, TypeError):
            self.checker.failed += count
            return
        others = decoded + [answers["submit"][i], answers["run_many"][i]]
        self.checker.failed += sum(
            1
            for at, want in enumerate(reference)
            if any(len(got) != count or got[at] != want for got in others)
        )

    async def _maintain(
        self,
        at: int,
        connection: Connection,
        submit_service: Any,
        asgi_service: Any,
        shadow: Any,
    ) -> None:
        """One write, applied to the server, both facades and the leaf pair."""
        tracer = self.tracer
        op = self.stream.maintenance[at % len(self.stream.maintenance)]
        kind = op["op"]
        self.checker.attempted += 1
        start = time.perf_counter()
        status, _ = await connection.roundtrip(
            self.stream.maintenance_requests[at % len(self.stream.maintenance)]
        )
        tracer.record("socket.maintenance", at, start, None)
        if status != 200:
            self.checker.failed += 1
        start = time.perf_counter()
        workloads.apply_maintenance(submit_service, op)
        tracer.record("service.update", at, start, "socket.maintenance")
        asgi_service.apply_report(self.engine.last_report)
        start = time.perf_counter()
        report = workloads.apply_maintenance(self.leaf_road, op)
        tracer.record(f"maintenance.report.{kind}", at, start, "service.update")
        start = time.perf_counter()
        self.leaf_frozen.apply(report, self.leaf_road)
        tracer.record("frozen.apply", at, start, "service.update")
        start = time.perf_counter()
        shadow.invalidate_report(report)
        tracer.record("result_cache.invalidate", at, start, "service.update")

    async def _burst(self) -> None:
        """A short untraced closed loop, for the tracing-overhead ratio."""
        seconds = max(1.0, BURST_SHARE * self.seconds)
        readers = 1 if self.stream.maintenance else 2
        connections = [
            Connection(procs.HOST, self.server.port) for _ in range(readers)
        ]
        try:
            samples = await closed_loop(
                connections,
                self.stream.requests,
                indices=itertools.count(self.stream.warmup_posts + self.replayed),
                seconds=seconds,
            )
        finally:
            for connection in connections:
                connection.close()
        self.checker.queries(samples, self.stream.posts, {})
        untraced = percentile([sample.latency_ms for sample in samples], 0.5)
        traced = self.tracer.median_us("socket") / 1000.0
        self.metrics["trace.vs_untraced_ratio"] = (traced / untraced, "ratio")

    def _shadow_cache(self) -> Any:
        """A ``ResultCache`` filled from the leaf snapshot with the pool's
        hottest queries, so that ``invalidate_report`` can be timed alone
        on a cache as full as the serving one."""
        from repro.core.search import SearchStats
        from repro.serving.result_cache import ResultCache, canonical_key, query_nodes
        from repro.serving.wire import decode_query

        directory = self.workload.directory
        budget = fixture.service_config(**self.workload.config).cache_budget
        shadow = ResultCache(budget)
        for wire in self.stream.pool[:budget]:
            query, stats = decode_query(wire), SearchStats()
            answer = self.leaf_frozen.execute(query, directory=directory, stats=stats)
            shadow.store(
                canonical_key(directory, query),
                list(answer),
                set(stats.visited_nodes).union(query_nodes(query)),
                stats.visited_rnets,
                shadow.generation(directory),
            )
        return shadow

    def _service_counters(self, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        metrics = self.metrics

        def delta(section: str, name: str) -> float:
            return float(after[section][name] - before[section][name])

        batches = delta("service", "batches")
        submitted = delta("service", "submitted")
        metrics["serving.service.batch_size_mean"] = (
            delta("service", "executed") / batches if batches else 0.0,
            "count",
        )
        metrics["serving.service.coalesced_share"] = (
            delta("service", "coalesced") / submitted if submitted else 0.0,
            "ratio",
        )
        metrics["serving.service.flushes"] = (delta("service", "flushes"), "count")
        if "result_cache" in after:
            lookups = delta("result_cache", "hits") + delta("result_cache", "misses")
            metrics["serving.result_cache.hit_ratio"] = (
                delta("result_cache", "hits") / lookups if lookups else 0.0,
                "ratio",
            )
            for name in ("evictions", "invalidations"):
                metrics[f"serving.result_cache.{name}"] = (
                    delta("result_cache", name),
                    "count",
                )
            metrics["serving.result_cache.entries"] = (
                float(after["result_cache"]["entries"]),
                "count",
            )

    # -- from spans to metrics -----------------------------------------
    def derive(self) -> None:
        tracer, metrics = self.tracer, self.metrics
        per_request = len(self.stream.posts[0])
        medians = {rung: tracer.median_us(rung) / per_request for rung in RUNGS}
        decode = tracer.median_us("wire.decode") / per_request
        encode = tracer.median_us("wire.encode") / per_request
        json_us = tracer.median_us("http.json") / per_request
        selfs = self_times(medians, {"asgi": decode + encode + json_us})
        metrics["serving.wire.decode_us"] = (decode, "us")
        metrics["serving.wire.encode_us"] = (encode, "us")
        metrics["serving.http.json_us"] = (json_us, "us")
        metrics["serving.http.socket_us"] = (selfs["socket"], "us")
        metrics["serving.http.app_us"] = (selfs["asgi"], "us")
        # One query per request waits out the admission timer; a batch
        # pays per-query futures and callbacks instead.
        waited = "admit_wait_us" if per_request == 1 else "submit_overhead_us"
        metrics[f"serving.service.{waited}"] = (selfs["submit"], "us")
        metrics["serving.service.dispatch_us"] = (selfs["run_many"], "us")
        for kind, name in KERNEL_METRIC.items():
            metrics[name] = (tracer.median_us(f"kernel.{kind}"), "us")
        if tracer.durations_us("submit.inline"):
            inline = tracer.median_us("submit.inline") / per_request
            metrics["serving.service.thread_handoff_us"] = (
                medians["submit"] - inline,
                "us",
            )
        if self.payload_bytes:
            metrics["serving.process_pool.handoff_us"] = (
                (tracer.median_us("pool.submit") - tracer.median_us("pool.execute_many"))
                / per_request,
                "us",
            )
            metrics["serving.process_pool.payload_bytes"] = (
                statistics.fmean(self.payload_bytes),
                "bytes",
            )
        if self.request_bytes:
            metrics["serving.wire.request_bytes"] = (
                statistics.fmean(self.request_bytes),
                "bytes",
            )
            metrics["serving.wire.response_bytes"] = (
                statistics.fmean(self.response_bytes),
                "bytes",
            )
        updates = tracer.paired_us("service.update")
        if updates:
            applies = tracer.paired_us("frozen.apply")
            reports: Dict[int, float] = {}
            for op in MAINTENANCE_OPS:
                by_request = tracer.paired_us(f"maintenance.report.{op}")
                reports.update(by_request)
                metrics[f"core.maintenance.report_us.{op}"] = (
                    statistics.median(by_request.values()) if by_request else 0.0,
                    "us",
                )
            metrics["core.frozen.apply_us"] = (tracer.median_us("frozen.apply"), "us")
            # What the service adds to a write: patching the replicas
            # and intersecting the report with the cache index.
            metrics["serving.service.broadcast_us"] = (
                statistics.median(
                    updates[at] - reports[at] - applies[at] for at in updates
                ),
                "us",
            )
            metrics["serving.result_cache.invalidate_us"] = (
                tracer.median_us("result_cache.invalidate"),
                "us",
            )
            mixed = [row for row in self.cache_rows if row[1] or row[2]]
            hit_us, miss_us = fit_hit_miss(mixed)
            metrics["serving.result_cache.hit_us"] = (hit_us, "us")
            metrics["serving.result_cache.miss_us"] = (miss_us, "us")
        metrics["trace.requests"] = (float(self.replayed), "count")
        for name, unit in PER_LAYER_UNITS.items():
            metrics.setdefault(name, (0.0, unit))

    def close(self) -> bool:
        for service in self.facades:
            service.close()
        if getattr(self, "base", None) is not None:
            self.base.close()
        server = getattr(self, "server", None)
        return server.stop() if server is not None else True


def run_traced(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    nodes: int = fixture.FULL_NODES,
    results_dir: Path,
) -> RunResult:
    """One traced run: every per-layer metric of one workload."""
    ladder = Ladder(workload, seed=seed, seconds=seconds, nodes=nodes)
    shm_before = procs.shm_segments()
    try:
        ladder.build()
        ladder._serialize(results_dir / f"snapshot_{workload.name}.tmp")
        ladder._search_counts()
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            asyncio.run(ladder._replay())
        finally:
            gc.enable()
            gc.unfreeze()
        ladder.derive()
    finally:
        clean = ladder.close()
    result = ladder.result
    if not clean:
        result.invalid.append("server did not exit cleanly on SIGTERM")
    leaked = procs.shm_segments() - shm_before
    if leaked:
        result.invalid.append(f"shared-memory segments leaked: {sorted(leaked)}")
    result.attempted, result.failed = ladder.checker.attempted, ladder.checker.failed
    ladder.tracer.write(results_dir / f"trace_{workload.name}.json")
    result.info = {"spans": len(ladder.tracer.spans)}
    return result
