"""One untraced run of one workload: the end-to-end numbers.

Order of events: start the server subprocess; while it builds, build the
same fixture in this process and pre-answer the verification subset on
it; drive the phases over a real loopback socket; check every kept
answer; tear the server down and make sure nothing outlives it; then
start more servers, only to time their set-up.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from road_bench import fixture, procs, workloads
from road_bench.loadgen import (
    Connection,
    OpenLoopResult,
    RequestFailed,
    Sample,
    closed_loop,
    open_loop,
    paced_loop,
)
from road_bench.stats import percentile, spans_per_window, windowed_percentile
from road_bench.workloads import Stream, Wire, Workload

#: Servers started per run; ``setup_s`` is the median of their start-ups.
SETUPS = 3
#: Connections of the one load-generator process.
CONNECTIONS = 2
#: An open phase that ends with more than this many seconds of requests
#: unanswered was overloaded: its latencies describe a growing queue.
MAX_BACKLOG_S = 1.0
#: Likewise for the paced writer: this many writes still waiting their
#: turn when the reads end means writes cannot keep up with reads.
MAX_WRITE_BACKLOG = 10

#: Width, in seconds, of the windows the closed phase is cut into.  Throughput, CPU
#: per query and the tail latency are medians over these windows: on a
#: shared machine a neighbour's burst slows a window or two, which moves
#: a whole-phase mean but not a median of windows.
WINDOW_S = 1.0

METRICS_REQUEST = b"GET /metrics HTTP/1.1\r\nHost: road-bench\r\n\r\n"

#: name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    metrics: Metrics = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Why the run does not count (dirty teardown, overloaded open phase).
    invalid: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invalid and self.attempted > 0


def decode_answers(body: bytes) -> List[List[Any]]:
    """The result lists of one ``/query`` response, single or batch."""
    from repro.serving.wire import decode_result

    payload = json.loads(body)
    if "result" in payload:
        return [decode_result(payload["result"])]
    return [decode_result(entries) for entries in payload["results"]]


def reference_answers(
    service: Any, queries: Sequence[Wire], directory: str
) -> List[List[Any]]:
    """What the in-process reference service answers for wire queries."""
    from repro.serving.wire import decode_query

    return service.run_many(
        [decode_query(query) for query in queries], directory=directory
    )


class Checker:
    """Counts attempted and failed operations across a run's phases.

    ``expected`` maps a position of ``posts`` to the reference answers of
    that request's queries; samples that kept their body are decoded and
    compared, the others are judged on their status alone.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def queries(
        self,
        samples: Iterable[Sample],
        posts: Sequence[Sequence[Wire]],
        expected: Dict[int, List[List[Any]]],
    ) -> List[int]:
        """Check ``/query`` samples; returns, per sample, how many of its
        queries were answered correctly."""
        good = []
        for sample in samples:
            position = sample.index % len(posts)
            count = len(posts[position])
            self.attempted += count
            if not sample.ok:
                wrong = count
            elif sample.body is None:
                wrong = 0
            else:
                wrong = _mismatches(sample.body, expected[position])
            self.failed += wrong
            good.append(count - wrong)
        return good

    def operations(self, samples: Sequence[Sample]) -> None:
        """Check samples that carry one operation each (maintenance)."""
        self.attempted += len(samples)
        self.failed += sum(1 for sample in samples if not sample.ok)


def _mismatches(body: bytes, expected: List[List[Any]]) -> int:
    try:
        answers = decode_answers(body)
    except (ValueError, KeyError, TypeError):
        return len(expected)
    if len(answers) != len(expected):
        return len(expected)
    return sum(1 for got, want in zip(answers, expected) if got != want)


@dataclass
class Phases:
    warmup: List[Sample] = field(default_factory=list)
    closed: List[Sample] = field(default_factory=list)
    closed_start: float = 0.0
    #: (time, server CPU seconds, server RSS MiB) at every window edge of
    #: the closed phase.
    ticks: List[Tuple[float, float, float]] = field(default_factory=list)
    opened: Optional[OpenLoopResult] = None
    open_start: float = 0.0
    writes: Optional[OpenLoopResult] = None
    #: The server's own result-cache counters before and after the closed
    #: phase (empty when the workload runs without the cache).
    cache_before: Dict[str, float] = field(default_factory=dict)
    cache_after: Dict[str, float] = field(default_factory=dict)


async def _drive(
    workload: Workload, stream: Stream, server: procs.Server, seconds: float
) -> Phases:
    phases = Phases()
    churn = bool(stream.maintenance)
    connections = [Connection(procs.HOST, server.port) for _ in range(CONNECTIONS)]
    # Under churn one of the two connections carries the writes.
    readers, writers = (connections[:1], connections[1:]) if churn else (connections, [])
    indices = itertools.count()

    def keep(index: int) -> bool:
        return index % len(stream.posts) in stream.verify

    try:
        if stream.warmup_posts:
            phases.warmup = await closed_loop(
                readers,
                stream.requests,
                indices=itertools.islice(indices, stream.warmup_posts),
                keep=keep,
            )
        else:
            phases.warmup = await closed_loop(
                readers,
                stream.requests,
                indices=indices,
                seconds=seconds * workloads.WARMUP_SHARE,
                keep=keep,
            )
        cached = bool(workload.config.get("result_cache"))
        if cached:
            phases.cache_before = await _cache_counters(readers[0])
        closed_s = seconds * workload.closed_share
        phases.closed_start = time.perf_counter()
        sampler = asyncio.ensure_future(
            _sample_server(server, phases.ticks, phases.closed_start, closed_s)
        )
        if churn:
            # The reads set the writer's pace: see workloads.POSTS_PER_WRITE.
            due_times: "asyncio.Queue[Optional[float]]" = asyncio.Queue()
            writer = asyncio.ensure_future(
                paced_loop(writers[0], stream.maintenance_requests, due_times)
            )
            indices = _pacing(indices, workloads.POSTS_PER_WRITE, due_times)
        phases.closed = await closed_loop(
            readers, stream.requests, indices=indices, seconds=closed_s, keep=keep
        )
        if churn:
            backlog = due_times.qsize()
            due_times.put_nowait(None)
            phases.writes = await writer
            phases.writes.backlog = backlog
        await sampler
        if cached:
            phases.cache_after = await _cache_counters(readers[0])
        if workload.closed_share < 1.0:
            phases.open_start = time.perf_counter()
            phases.opened = await open_loop(
                readers,
                stream.requests,
                rate=workloads.OPEN_RATE,
                count=int(workloads.OPEN_RATE * (seconds - closed_s)),
                first_index=next(indices),
                keep=keep,
            )
    finally:
        for connection in connections:
            connection.close()
    return phases


def _pacing(
    indices: Iterator[int], every: int, due_times: "asyncio.Queue[Optional[float]]"
) -> Iterator[int]:
    """``indices``, with a due time put on the queue at every ``every``-th draw."""
    for count, index in enumerate(indices):
        if count % every == 0:
            due_times.put_nowait(time.perf_counter())
        yield index


async def _cache_counters(connection: Connection) -> Dict[str, float]:
    """The ``road_cache_*`` samples of the server's ``/metrics``, or
    nothing if it does not answer: these feed diagnostics only."""
    try:
        status, body = await connection.roundtrip(METRICS_REQUEST)
    except RequestFailed:
        return {}
    if status != 200:
        return {}
    counters = {}
    for line in body.decode("utf-8", "replace").splitlines():
        if line.startswith("road_cache_"):
            name, _, value = line.rpartition(" ")
            counters[name] = float(value)
    return counters


async def _sample_server(
    server: procs.Server,
    ticks: List[Tuple[float, float, float]],
    start: float,
    seconds: float,
) -> None:
    """Read the server tree's CPU clock and RSS at every window edge: the
    ``seconds`` from ``start`` are cut into equal windows of about
    ``WINDOW_S`` each."""
    windows = max(1, round(seconds / WINDOW_S))
    for edge in range(windows + 1):
        await asyncio.sleep(start + edge * seconds / windows - time.perf_counter())
        ticks.append((time.perf_counter(), server.cpu_seconds(), server.rss_mib()))


async def _replay(server: procs.Server, requests: Sequence[bytes]) -> List[Sample]:
    """Send every request once over one connection, keeping the bodies."""
    connection = Connection(procs.HOST, server.port)
    try:
        samples = await closed_loop(
            [connection],
            requests,
            indices=iter(range(len(requests))),
            keep=lambda index: True,
        )
    finally:
        connection.close()
    return samples


def _quiescent_check(
    stream: Stream,
    reference: Any,
    server: procs.Server,
    writes: OpenLoopResult,
    checker: Checker,
) -> None:
    """After the churn: bring the reference to the server's state by
    applying exactly the acknowledged writes, in order, then replay pool
    queries (the hot ones included) and demand equal answers — a stale
    cache entry or a replica that missed a patch shows here."""
    for sample in writes.samples:
        if sample.ok:
            workloads.apply_maintenance(reference, stream.maintenance[sample.index])
    ranks = workloads.replay_ranks(len(stream.pool))
    directory = stream.workload.directory
    posts = [
        [stream.pool[rank] for rank in ranks[at : at + workloads.ZIPF_BATCH]]
        for at in range(0, len(ranks), workloads.ZIPF_BATCH)
    ]
    expected = {
        position: reference_answers(reference, post, directory)
        for position, post in enumerate(posts)
    }
    requests = [workloads.encode_post(post, directory) for post in posts]
    checker.queries(asyncio.run(_replay(server, requests)), posts, expected)


def _latency_metrics(
    metrics: Metrics,
    prefix: str,
    samples: Sequence[Sample],
    start: float,
    window_s: float = WINDOW_S,
    tail: bool = True,
) -> None:
    """``<prefix>_p50_ms`` over the samples and, with ``tail``,
    ``<prefix>_p95_ms`` as the median over windows of the window's p95."""
    latencies = [sample.latency_ms for sample in samples]
    metrics[f"{prefix}_p50_ms"] = (percentile(latencies, 0.50), "ms")
    if not tail:
        return
    tail_ms, _ = windowed_percentile(
        ((sample.start, sample.latency_ms) for sample in samples),
        0.95,
        start=start,
        window_s=window_s,
    )
    metrics[f"{prefix}_p95_ms"] = (tail_ms, "ms")


def _closed_phase_metrics(
    metrics: Metrics, phases: Phases, good: Sequence[int], *, tail: bool
) -> None:
    """Throughput, CPU per query and memory of the closed phase, each a
    median over its windows; ``good`` is the correctly answered queries
    of each closed-phase sample."""
    ticks = phases.ticks
    edges = [at for at, _, _ in ticks]
    answered = spans_per_window(
        (
            (sample.start, sample.start + sample.latency_ms / 1000.0, count)
            for sample, count in zip(phases.closed, good)
        ),
        edges,
    )
    windows = list(zip(ticks, ticks[1:], answered))
    metrics["queries_per_s"] = (
        statistics.median(
            count / (after[0] - before[0]) for before, after, count in windows
        ),
        "1/s",
    )
    # A window that answered nothing has no cost per query; a run whose
    # every window is such fails on its error share, not here.
    metrics["cpu_ms_per_query"] = (
        statistics.median(
            (after[1] - before[1]) * 1000.0 / count if count else 0.0
            for before, after, count in windows
        ),
        "ms",
    )
    metrics["server_rss_mib"] = (statistics.median(rss for _, _, rss in ticks), "MiB")
    _latency_metrics(
        metrics,
        "request",
        phases.closed,
        phases.closed_start,
        window_s=(edges[-1] - edges[0]) / len(windows),
        tail=tail,
    )


def _time_setups(workload: Workload, nodes: int, count: int) -> List[float]:
    """Start ``count`` servers at once, only to time them to READY.

    Every timed start-up in a run has exactly one busy neighbour on this
    two-core box: the first server builds beside the harness's own
    fixture build, these build beside each other.
    """
    servers = [procs.Server(workload.config, nodes=nodes).start() for _ in range(count)]
    try:
        return [server.wait_ready() for server in servers]
    finally:
        for server in servers:
            server.stop()


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    nodes: int = fixture.FULL_NODES,
    setups: int = SETUPS,
) -> RunResult:
    """One untraced run: every end-to-end metric of one workload."""
    result = RunResult(workload.name, seed, seconds)
    shm_before = procs.shm_segments()
    checker = Checker()
    server = procs.Server(workload.config, nodes=nodes).start()
    try:
        dataset = fixture.build_dataset(nodes)
        reference = fixture.build_service(dataset)
        stream = workloads.generate(workload, dataset, seed, seconds)
        expected = {
            position: reference_answers(
                reference, stream.posts[position], workload.directory
            )
            for position in sorted(stream.verify)
        }
        # The reference is a large object graph; keep the collector from
        # walking it in the middle of a timed phase.
        gc.collect()
        gc.freeze()
        setup_samples = [server.wait_ready()]
        gc.disable()
        try:
            phases = asyncio.run(_drive(workload, stream, server, seconds))
        finally:
            gc.enable()
        good = checker.queries(phases.closed, stream.posts, expected)
        checker.queries(phases.warmup, stream.posts, expected)
        if phases.opened is not None:
            checker.queries(phases.opened.samples, stream.posts, expected)
        if phases.writes is not None:
            checker.operations(phases.writes.samples)
            _quiescent_check(stream, reference, server, phases.writes, checker)
    finally:
        clean = server.stop()
        gc.unfreeze()
    if not clean:
        result.invalid.append("server did not exit cleanly on SIGTERM")
    leaked = procs.shm_segments() - shm_before
    if leaked:
        result.invalid.append(f"shared-memory segments leaked: {sorted(leaked)}")
    if setups > 1:
        setup_samples += _time_setups(workload, nodes, setups - 1)

    metrics = result.metrics
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    _closed_phase_metrics(metrics, phases, good, tail=workload.windowed_tail)
    latencies = [sample.latency_ms for sample in phases.closed]
    metrics["serving.http.request_p95_ms"] = (percentile(latencies, 0.95), "ms")
    metrics["serving.http.request_p99_ms"] = (percentile(latencies, 0.99), "ms")
    late: List[float] = []
    if phases.opened is not None:
        _latency_metrics(metrics, "open", phases.opened.samples, phases.open_start)
    if phases.writes is not None:
        writes = [sample.latency_ms for sample in phases.writes.samples]
        metrics["maint_p50_ms"] = (percentile(writes, 0.50), "ms")
    for phase, opened, allowed in (
        ("open", phases.opened, workloads.OPEN_RATE * MAX_BACKLOG_S),
        ("maintenance", phases.writes, MAX_WRITE_BACKLOG),
    ):
        if opened is None:
            continue
        late += opened.late_ms
        if opened.backlog > allowed:
            result.invalid.append(
                f"{phase} phase overloaded: {opened.backlog} requests "
                f"unanswered at the end of its schedule"
            )
    if late:
        metrics["serving.http.late_p99_ms"] = (percentile(late, 0.99), "ms")
    if phases.cache_after:
        # What the cache did under the real load, from the server itself.
        moved = {
            name: phases.cache_after.get(f"road_cache_{name}_total", 0.0)
            - phases.cache_before.get(f"road_cache_{name}_total", 0.0)
            for name in ("hits", "misses", "evictions", "invalidations")
        }
        lookups = moved["hits"] + moved["misses"]
        metrics["serving.result_cache.hit_ratio"] = (
            moved["hits"] / lookups if lookups else 0.0,
            "ratio",
        )
        metrics["serving.result_cache.evictions"] = (moved["evictions"], "count")
        metrics["serving.result_cache.invalidations"] = (
            moved["invalidations"],
            "count",
        )
    result.attempted, result.failed = checker.attempted, checker.failed
    metrics["error_share"] = (checker.failed / max(checker.attempted, 1), "ratio")
    result.info = {
        "request_samples": len(phases.closed),
        "setup_samples_s": setup_samples,
        "windows": len(phases.ticks) - 1,
    }
    return result
