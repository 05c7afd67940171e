"""The :class:`RoadService` facade: one public way to run queries.

The dispatch protocol (:mod:`repro.serving.dispatch`) makes every engine
answer ``execute`` / ``execute_many`` identically; this module puts one
front door in front of them:

* :class:`ServiceConfig` — a typed configuration owning the ROAD
  serving path (charged/frozen mode, hierarchy shape) plus the
  admission-batching, replica and result-cache knobs.  The historical
  ``REPRO_*`` environment variables are *overrides* read by
  :meth:`ServiceConfig.from_env`, not the primary API.  *What* is
  served is not configuration: the directories attached to the ROAD
  are, every frozen snapshot compiles all of them, and a request names
  its directory (an omitted name is the primary executor's
  ``default_directory`` on the sync and the async path alike).  Nor is
  a snapshot's array layout: the primary's is ``list``, the process
  pool's ``shm``.
* :class:`RoadService` — sync ``run``/``run_many`` over the configured
  executor, and an **asyncio front-end**: ``await service.submit(query)``
  parks the query in a per-(directory, predicate) admission bucket.
  Admission is **work-conserving**: while a replica is free the buckets
  flush at the end of the current event-loop tick (one ``gather`` is one
  batch); only while every replica is busy are they held, until a batch
  completes, ``max_batch`` queries are pending or ``max_delay_ms`` has
  passed.  A flush sends each bucket through one dispatch pipeline,
  whatever the configuration:

  1. **coalesce** — identical in-flight queries fold into one;
  2. **cache-split** — the result cache answers what it can (hits are
     delivered at once); with the cache off everything is a miss;
  3. **execute** — the misses go, as one batch sharing its predicate
     caches, to the *replica set* picked at construction (the primary
     executor inline or on pool threads, or process replicas, behind
     one ``submit(...) -> Future`` surface: :mod:`repro.serving.replicas`);
  4. **populate** — executed answers enter the cache under their
     visit-set footprints, unless a patch landed mid-flight;
  5. **deliver** — every caller's future completes with its own copy.

  Maintenance goes through the service too, under the one executor
  lock every batch on the primary holds: the executor patches its own
  snapshot, and each update's
  :class:`~repro.core.maintenance.MaintenanceReport` patches the process
  pool's shared snapshot, so no snapshot drifts from the primary.

Typical use::

    config = ServiceConfig(mode="frozen", replicas=2)
    service = RoadService.build(network, objects, config=config)
    nearest = service.run(KNNQuery(node, k=5))          # sync
    answers = await asyncio.gather(                     # async, batched
        *(service.submit(q) for q in queries)
    )

All three paths — sync, async-batched, sharded-replica — return
byte-identical results; the serving test suite asserts it with the
:func:`repro.eval.metrics.snapshot_divergences` probes.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.baselines.road_adapter import MODE_ENV, ROAD_MODES, ROADEngine
from repro.core.maintenance import MaintenanceReport
from repro.queries.types import ResultRow
from repro.serving.dispatch import (
    QueryExecutor,
    UnknownNodeError,
    UnsupportedQueryError,
)
from repro.serving.metrics import BATCH_SIZE_BUCKETS, Counter, MetricsRegistry
from repro.serving.process_pool import ProcessReplicaPool
from repro.serving.replicas import LocalReplicas
from repro.serving.result_cache import ResultCache, query_nodes

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.framework import ROAD
    from repro.core.frozen import FrozenRoad
    from repro.core.search import SearchStats
    from repro.graph.network import RoadNetwork
    from repro.objects.model import ObjectSet
    from repro.storage.pager import PageManager

#: One admitted (query, completion future) pair; the future completes
#: with that query's result list.
_Entry = Tuple[object, "asyncio.Future[List[ResultRow]]"]

#: One admission bucket: when it was opened (``perf_counter``) and its
#: entries, keyed in ``RoadService._pending`` by (directory, predicate).
_Buckets = Dict[Tuple[str, object], Tuple[float, List[_Entry]]]

#: Why a flush ran (``road_flushes_total{reason=...}``): the buckets
#: reached ``max_batch``; a replica was free; a batch completed and
#: released what was held behind it; or the hold hit ``max_delay_ms``.
FLUSH_REASONS = ("full", "idle", "released", "deadline")

#: What the execute stage hands batches to (:mod:`repro.serving.replicas`
#: documents the shared surface).
ReplicaSet = Union[LocalReplicas, ProcessReplicaPool]

#: ROAD serving modes — the one source of truth lives on the engine.
MODES = ROAD_MODES

#: Where replica batches execute: pool threads on the primary's own
#: snapshot, or worker processes over one shared-memory snapshot.
REPLICA_MODES = ("thread", "process")

#: Environment overrides honoured by :meth:`ServiceConfig.from_env`
#: (beside ``MODE_ENV``).
REPLICAS_ENV = "REPRO_REPLICAS"
REPLICA_MODE_ENV = "REPRO_REPLICA_MODE"
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"

#: Counter names the result cache mirrors into ``/metrics`` families
#: (``road_cache_<name>_total``).
_CACHE_COUNTER_HELP: Dict[str, str] = {
    "hits": "Queries answered from the result cache.",
    "misses": "Cache lookups that fell through to execution.",
    "evictions": "Entries dropped by the LRU budget.",
    "invalidations": "Entries evicted by maintenance reports.",
}


def _parse_bool(name: str, raw: str) -> bool:
    """A strict boolean env flag — a typo must not silently disable."""
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"{name} must be a boolean flag, got {raw!r}")


def _parse_int(name: str, raw: str) -> int:
    """An integer env override — a typo must name its variable."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


class ServiceError(RuntimeError):
    """A service-level misconfiguration (e.g. replicas without a ROAD)."""


#: Service-level counters and their ``/metrics`` help lines.  The dict in
#: ``RoadService._counters`` stays the cheap in-process view; each name is
#: mirrored into a ``road_service_<name>_total`` counter family.
_SERVICE_COUNTER_HELP: Dict[str, str] = {
    "submitted": "Queries accepted by submit().",
    "flushes": "Admission-bucket flushes drained.",
    "batches": "execute_many calls issued by flushes.",
    "executed": "Queries actually executed (after coalescing).",
    "coalesced": "Queries answered by an in-flight twin.",
}


def _stat_number(stats: Mapping[str, object], key: str) -> float:
    """One numeric field of a stats mapping, 0.0 when absent/non-numeric."""
    value = stats.get(key)
    return float(value) if isinstance(value, (int, float)) else 0.0


@dataclass(frozen=True)
class ServiceConfig:
    """Typed serving configuration: what was previously ``REPRO_*`` sprawl.

    ``mode``, ``levels`` and ``fanout`` configure the ROAD serving path
    exactly like the eponymous
    :class:`~repro.baselines.road_adapter.ROADEngine` knobs.
    The remaining fields drive the async front-end: ``max_batch`` caps
    how many queries one admission flush may hold, ``max_delay_ms`` is
    the upper bound on how long an under-full bucket is held while
    every replica is busy (with a replica free it is flushed within the
    event-loop tick and never meets the timer), ``replicas`` how many
    workers execute batches (0 = inside the flush, on the event-loop
    thread), and ``replica_mode`` what a worker *is*: ``"thread"``
    workers are pool threads running batches on the primary executor
    itself, one at a time under its lock (one interpreter: the event
    loop stays live, nothing runs in parallel), ``"process"`` workers
    are processes attached to one shared ``backend="shm"`` snapshot
    (:class:`~repro.serving.process_pool.ProcessReplicaPool`) — real
    CPU parallelism at one snapshot's memory cost.
    """

    mode: str = "charged"
    levels: int = 4
    fanout: int = 4
    max_batch: int = 64
    max_delay_ms: float = 2.0
    replicas: int = 0
    replica_mode: str = "thread"
    #: Serve repeated queries from a cross-request result cache whose
    #: entries are invalidated by maintenance-report footprints
    #: (:mod:`repro.serving.result_cache`).  Coalescing dedupes
    #: *in-flight* twins inside one flush, the cache dedupes *across*
    #: flushes.
    result_cache: bool = False
    #: Max cached entries (LRU evicts beyond this).
    cache_budget: int = 2048

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {self.max_delay_ms}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.replica_mode not in REPLICA_MODES:
            raise ValueError(
                f"replica_mode must be one of {REPLICA_MODES}, "
                f"got {self.replica_mode!r}"
            )
        if self.cache_budget < 1:
            raise ValueError(
                f"cache_budget must be >= 1, got {self.cache_budget}"
            )

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        """A config from the ``REPRO_*`` environment overrides.

        Explicit keyword arguments beat the environment; the environment
        beats the defaults.  This is the one place the serving stack
        reads those variables — everything else takes a config object
        (``max_delay_ms``, keyword only, bounds a hold while every
        replica is busy).
        """
        env: Dict[str, Any] = {}
        if MODE_ENV in os.environ:
            env["mode"] = os.environ[MODE_ENV].lower()
        if REPLICAS_ENV in os.environ:
            env["replicas"] = _parse_int(REPLICAS_ENV, os.environ[REPLICAS_ENV])
        if REPLICA_MODE_ENV in os.environ:
            env["replica_mode"] = os.environ[REPLICA_MODE_ENV].lower()
        if RESULT_CACHE_ENV in os.environ:
            env["result_cache"] = _parse_bool(
                RESULT_CACHE_ENV, os.environ[RESULT_CACHE_ENV]
            )
        if CACHE_BUDGET_ENV in os.environ:
            env["cache_budget"] = _parse_int(
                CACHE_BUDGET_ENV, os.environ[CACHE_BUDGET_ENV]
            )
        env.update(overrides)
        return cls(**env)


class RoadService:
    """The serving facade over one :class:`~repro.serving.QueryExecutor`.

    Construct over an existing executor (a built
    :class:`~repro.core.framework.ROAD`, a
    :class:`~repro.core.frozen.FrozenRoad`, a
    :class:`~repro.baselines.road_adapter.ROADEngine` or any baseline),
    or let :meth:`build` construct the ROAD engine the config describes.

    The async front-end is single-loop: call :meth:`submit` from one
    running event loop (the flush machinery uses that loop's clock and
    thread); the replica worker pool is where cross-thread execution
    happens.  A batch on the primary holds the one executor lock, and
    so does every other touch of the executor here; two services over
    one executor do not share it.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        *,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(executor, QueryExecutor):
            raise TypeError(
                f"executor must be a QueryExecutor, got {type(executor).__name__}"
            )
        self.config = config if config is not None else ServiceConfig()
        self._executor = executor
        self._executor_lock = threading.Lock()
        #: The gauges sampling one memory_stats() pass, and that pass.
        self._memory_round: Optional[Tuple[Set[str], Mapping[str, object]]] = None
        # -- async admission state (touched only from the loop thread) --
        self._pending: _Buckets = {}
        self._pending_count = 0
        #: Batches handed to a replica and not yet completed.
        self._in_flight = 0
        self._flush_handle: Optional[asyncio.Handle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._counters = {name: 0 for name in _SERVICE_COUNTER_HELP}
        self._result_cache: Optional[ResultCache] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_metrics()
        if self.config.result_cache:
            self._result_cache = ResultCache(
                self.config.cache_budget,
                counters=dict(self._cache_counters),
            )
        self._shards: ReplicaSet = self._init_replicas()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: "RoadNetwork",
        objects: "ObjectSet",
        *,
        config: Optional[ServiceConfig] = None,
        pager: Optional["PageManager"] = None,
        **engine_kwargs: Any,
    ) -> "RoadService":
        """Build the :class:`ROADEngine` the config describes and wrap it.

        ``config=None`` reads the environment overrides
        (:meth:`ServiceConfig.from_env`).  Extra keyword arguments are
        forwarded to the engine constructor (``providers``,
        ``bisector``, ``abstract_factory``, ...).
        """
        if config is None:
            config = ServiceConfig.from_env()
        executor = ROADEngine(
            network,
            objects,
            pager,
            levels=config.levels,
            fanout=config.fanout,
            mode=config.mode,
            **engine_kwargs,
        )
        return cls(executor, config=config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executor(self) -> QueryExecutor:
        """The primary executor queries run on (replicas aside)."""
        return self._executor

    @property
    def replicas(self) -> Tuple[QueryExecutor, ...]:
        """The snapshot the replica set holds, if it holds one.

        Process mode has one *shared* snapshot every worker process
        attaches, so this returns that single snapshot (probe it to
        probe what every worker serves).  Inline and thread batches run
        on the primary executor itself, so this is empty: probe
        ``executor.frozen`` instead.
        """
        return self._shards.replicas

    def stats(self) -> Dict[str, object]:
        """Serving counters plus the executor's own stats when it has any."""
        summary: Dict[str, object] = {
            "service": dict(self._counters),
            "in_flight": self._in_flight,
            "replicas": self._shards.workers,
            "replica_mode": self.config.replica_mode,
            "config": self.config,
            "replica_pool": self.replica_pool_stats(),
            "metrics": self.metrics.snapshot(),
        }
        if self._result_cache is not None:
            summary["result_cache"] = self._result_cache.stats()
        engine_stats = getattr(self._executor, "stats", None)
        if callable(engine_stats):
            with self._executor_lock:
                summary["engine"] = engine_stats()
        return summary

    def replica_pool_stats(self) -> Dict[str, object]:
        """Replica-pool counters under mode-independent key names.

        Every replica set reports the :meth:`ProcessReplicaPool.stats`
        keys (the process pool adds its seqlock words), and keeps
        reporting after ``close()`` — ``closed`` is how ``/healthz``
        learns the service is down.  ``/metrics`` and ``stats()``
        consumers never branch on ``replica_mode``.
        """
        return self._shards.stats()

    # ------------------------------------------------------------------
    # Metrics surface
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        """Register this service's counter/histogram/gauge families."""
        registry = self.metrics
        self._metric_counters = {
            name: registry.counter(f"road_service_{name}_total", text)
            for name, text in _SERVICE_COUNTER_HELP.items()
        }
        # Per-kind admission counters materialise lazily: query classes
        # appear as their first instance is submitted.
        self._kind_counters: Dict[str, Counter] = {}
        self._batch_sizes = registry.histogram(
            "road_admission_batch_size",
            "Unique queries per execute_many admission batch.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._latency = registry.histogram(
            "road_query_latency_ms",
            "Per-query submit() latency (admission to delivery) in ms.",
        )
        self._admit_wait, self._cache_stage = (
            registry.histogram(
                "road_stage_ms",
                "Time spent per request-path stage in ms.",
                labels={"stage": stage},
            )
            for stage in ("admit_wait", "cache")
        )
        self._flush_reasons = {
            reason: registry.counter(
                "road_flushes_total",
                "Admission flushes by what triggered them.",
                labels={"reason": reason},
            )
            for reason in FLUSH_REASONS
        }
        registry.gauge(
            "road_replica_pool",
            "Replica-pool state (ProcessReplicaPool.stats() keys, both "
            "modes).",
            self._pool_gauge,
            label="field",
        )
        registry.gauge(
            "road_directory_resident_bytes",
            "Resident bytes per compiled directory of the serving "
            "snapshot.",
            self._directory_bytes_gauge,
            label="directory",
        )
        registry.gauge(
            "road_mask_cache",
            "Mask-cache occupancy/eviction state of the serving snapshot.",
            self._mask_cache_gauge,
            label="field",
        )
        registry.gauge(
            "road_snapshot_resident_bytes",
            "Total resident bytes of the serving snapshot.",
            self._snapshot_bytes_gauge,
        )
        self._cache_counters = {
            name: registry.counter(f"road_cache_{name}_total", text)
            for name, text in _CACHE_COUNTER_HELP.items()
        }
        self._cache_invalidate = registry.histogram(
            "road_cache_invalidate_ms",
            "Result-cache invalidation time per maintenance report in ms.",
        )
        registry.gauge(
            "road_cache_hit_ratio",
            "Result-cache hits / lookups (0 while cold or disabled).",
            self._cache_hit_ratio_gauge,
        )
        registry.gauge(
            "road_cache_entries",
            "Entries resident in the result cache.",
            self._cache_entries_gauge,
        )

    def _cache_hit_ratio_gauge(self) -> float:
        cache = self._result_cache
        if cache is None:
            return 0.0
        hits, misses = cache.hits, cache.misses
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def _cache_entries_gauge(self) -> float:
        cache = self._result_cache
        return 0.0 if cache is None else float(len(cache))

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump one service counter in both surfaces (dict + /metrics)."""
        self._counters[name] += amount
        self._metric_counters[name].inc(amount)

    def _count_kind(self, kind: str) -> None:
        """Bump the per-query-class admission counter."""
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self.metrics.counter(
                "road_queries_by_kind_total",
                "Queries admitted by submit(), per query class.",
                labels={"kind": kind},
            )
            self._kind_counters[kind] = counter
        counter.inc()

    def _pool_gauge(self) -> Dict[str, float]:
        return {
            key: float(value)
            for key, value in self.replica_pool_stats().items()
            if isinstance(value, (int, float))
        }

    def _memory_stats(self, gauge: str) -> Mapping[str, object]:
        """The serving snapshot's ``memory_stats()``, one pass per scrape.

        On the ``list`` backend the pass walks every boxed element (tens
        of ms on full CA), and three gauges read it.  Each scrape samples
        each gauge once, so the first gauge of a round computes it and
        the others reuse it; a gauge asking again opens the next round.
        Empty when no frozen snapshot serves.
        """
        from repro.core.frozen import FrozenRoad

        if self._memory_round is None or gauge in self._memory_round[0]:
            serving = self._serving_executor()
            # A snapshot serves itself; an engine exposes its own.
            frozen = getattr(serving, "frozen", serving)
            stats: Mapping[str, object] = {}
            if isinstance(frozen, FrozenRoad):
                # The primary's snapshot may be mid-batch on a pool thread.
                with self._executor_lock:
                    stats = frozen.memory_stats()
            self._memory_round = (set(), stats)
        sampled, stats = self._memory_round
        sampled.add(gauge)
        return stats

    def _directory_bytes_gauge(self) -> Dict[str, float]:
        directories = self._memory_stats("directories").get("directories")
        if not isinstance(directories, Mapping):
            return {}
        out: Dict[str, float] = {}
        for name, entry in directories.items():
            if not isinstance(entry, Mapping):
                continue
            out[str(name)] = sum(
                _stat_number(entry, key)
                for key in (
                    "object_array_bytes",
                    "object_ref_bytes",
                    "mask_cache_bytes",
                )
            )
        return out

    def _mask_cache_gauge(self) -> Dict[str, float]:
        stats = self._memory_stats("mask_cache")
        if not stats:
            return {}
        return {
            key: _stat_number(stats, key)
            for key in (
                "mask_cache_bytes",
                "mask_cache_entries",
                "mask_budget",
                "mask_evictions",
            )
        }

    def _snapshot_bytes_gauge(self) -> float:
        return _stat_number(self._memory_stats("snapshot"), "total_bytes")

    # ------------------------------------------------------------------
    # Sync path
    # ------------------------------------------------------------------
    def run(
        self,
        query: object,
        *,
        directory: Optional[str] = None,
        stats: Optional["SearchStats"] = None,
    ) -> List[ResultRow]:
        """Run one query synchronously on the primary executor."""
        with self._executor_lock:
            return self._executor.execute(query, directory=directory, stats=stats)

    def run_many(
        self,
        queries: Sequence[object],
        *,
        directory: Optional[str] = None,
        stats: Optional["SearchStats"] = None,
    ) -> List[List[ResultRow]]:
        """Run a workload synchronously on the primary executor."""
        with self._executor_lock:
            return self._executor.execute_many(
                queries, directory=directory, stats=stats
            )

    # ------------------------------------------------------------------
    # Async admission-batched path
    # ------------------------------------------------------------------
    async def submit(
        self, query: object, *, directory: Optional[str] = None
    ) -> List[ResultRow]:
        """Admit one query; await its results.

        The query joins the in-flight bucket for its (directory,
        predicate).  With a replica free the bucket is flushed into one
        ``execute_many`` at the end of this event-loop tick, so every
        submitter of one ``gather`` shares it; with every replica busy
        it is held until a batch completes, ``max_batch`` queries are
        pending or ``max_delay_ms`` elapses, whichever comes first.
        An identical in-flight query is executed once and fanned out.
        """
        start = time.perf_counter()
        if self._shards.closed:
            raise ServiceError("service closed")
        serving = self._serving_executor()
        # Fail fast — a bad query, node or directory must reject *this*
        # call, not poison the whole flush it would have joined.
        if not serving.supports(query):
            raise UnsupportedQueryError(serving, query)
        for node in query_nodes(query):
            if not serving.has_node(node):
                raise UnknownNodeError(serving, node)
        if directory is None:
            # The primary's default, as on the sync path: a shard
            # snapshot lacking it must refuse, not pick its own.
            directory = self._executor.default_directory
        directory = serving.check_directory(directory)
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            # A previous event loop died with admission state in flight
            # (abandoned asyncio.run, KeyboardInterrupt): its timer
            # handle would suppress rescheduling forever and its futures
            # can no longer be completed.  Adopt the new loop cleanly.
            self._adopt_loop(loop)
        future: "asyncio.Future[List[ResultRow]]" = loop.create_future()
        key = (directory, getattr(query, "predicate", None))
        bucket = self._pending.get(key)
        if bucket is None:
            bucket = self._pending[key] = (start, [])
        bucket[1].append((query, future))
        self._pending_count += 1
        self._count("submitted")
        self._count_kind(type(query).__name__)
        if self._pending_count >= self.config.max_batch:
            self._flush("full")
        elif self._flush_handle is None:  # else armed by an earlier submit
            if self._in_flight < max(1, self._shards.workers):
                # A replica is free (inline execution always is: it runs
                # inside the flush), so waiting buys nothing: flush once
                # this tick's other submitters have joined.
                self._flush_handle = loop.call_soon(self._flush, "idle")
            else:
                # Every replica is busy: batch until one completes
                # (_dispatch's release), for at most max_delay_ms.
                self._flush_handle = loop.call_later(
                    self.config.max_delay_ms / 1000.0, self._flush, "deadline"
                )
        try:
            return await future
        finally:
            # Failed queries are observed too: a latency surface that
            # drops errors under load reports a fantasy tail.
            self._latency.observe((time.perf_counter() - start) * 1000.0)

    def _take_pending(self) -> _Buckets:
        """Cancel the armed flush and take every admission bucket."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, {}
        self._pending_count = 0
        return pending

    def _adopt_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Reset admission state bound to a previous (dead) event loop."""
        for _since, entries in self._take_pending().values():
            self._reject(
                entries,
                ServiceError("event loop changed with queries in flight"),
            )
        # The previous loop's batches no longer count (see release).
        self._in_flight = 0
        self._loop = loop

    def _flush(self, reason: str) -> None:
        """Drain every admission bucket through the dispatch pipeline."""
        pending = self._take_pending()
        if not pending:
            return
        self._count("flushes")
        self._flush_reasons[reason].inc()
        now = time.perf_counter()
        for (directory, _predicate), (since, entries) in pending.items():
            self._admit_wait.observe((now - since) * 1000.0)
            self._dispatch(directory, entries)

    # ------------------------------------------------------------------
    # The dispatch pipeline
    # ------------------------------------------------------------------
    def _dispatch(self, directory: str, entries: List[_Entry]) -> None:
        """One bucket: coalesce → cache-split → execute → populate → deliver.

        No stage forks on configuration: a disabled cache makes the
        split yield "all misses", an unsharded service makes the
        hand-off complete inside the call.
        """
        slot, unique = self._coalesce(entries)
        cache = self._result_cache
        if cache is not None:
            started = time.perf_counter()
            hits, miss_idx, keys = cache.split(directory, unique)
            # Captured *before* execution: an invalidation landing
            # mid-flight bumps it, and the populate then refuses the
            # store rather than caching a pre-patch answer.
            generation = cache.generation(directory)
            split_ms = (time.perf_counter() - started) * 1000.0
            if not miss_idx:  # all hits: no populate will follow
                self._cache_stage.observe(split_ms)
        else:  # cache off: the split yields "all misses"
            hits, miss_idx, keys, generation = {}, range(len(unique)), [], (0, 0)
        if hits:
            self._deliver(entries, slot, hits)  # before the misses execute
        if not miss_idx:
            return
        misses = [unique[index] for index in miss_idx]
        self._count("batches")
        self._count("executed", len(misses))
        self._batch_sizes.observe(float(len(misses)))

        def complete(done: "Union[Future[Any], asyncio.Future[Any]]") -> None:
            try:
                results = done.result()
            except Exception as exc:  # noqa: BLE001 — fan the error out
                # Hit futures are already complete; _reject skips them.
                self._reject(entries, exc)
                return
            if cache is not None:
                results, footprints = results
                started = time.perf_counter()
                cache.populate(zip(keys, misses, results, footprints), generation)
                self._cache_stage.observe(
                    split_ms + (time.perf_counter() - started) * 1000.0
                )
            self._deliver(entries, slot, dict(zip(miss_idx, results)))

        loop = self._loop

        def release(done: "asyncio.Future[Any]") -> None:
            # A replica came free: deliver its answers, then send on
            # what was held behind it while every replica was busy.
            if self._loop is not loop:  # a stale loop run again:
                complete(done)  # _adopt_loop already reset the count
                return
            self._in_flight -= 1
            complete(done)
            self._flush("released")

        try:
            handed = self._shards.submit(
                misses, directory, footprints=cache is not None
            )
        except Exception as exc:  # noqa: BLE001 — fan the error out
            # The replica set refused the batch (closed, degraded, every
            # worker dead) or, unsharded, executing it failed: reject
            # exactly this bucket, so the rest of the flush dispatches.
            self._reject(entries, exc)
            return
        if handed.done():
            # Unsharded: the batch ran inside submit(), so delivery stays
            # inside the flush with no extra event-loop hop.
            complete(handed)
        else:
            # A worker thread or the pool's listener thread completes the
            # future; wrap_future relays it back onto this loop.
            self._in_flight += 1
            relay = asyncio.wrap_future(handed, loop=loop)
            relay.add_done_callback(release)

    def _coalesce(
        self, entries: List[_Entry]
    ) -> Tuple[Dict[object, int], List[object]]:
        """Fold identical in-flight queries: (query → unique index, unique)."""
        slot: Dict[object, int] = {}
        unique: List[object] = []
        for query, _future in entries:
            if query not in slot:
                slot[query] = len(unique)
                unique.append(query)
        self._count("coalesced", len(entries) - len(unique))
        return slot, unique

    @staticmethod
    def _deliver(
        entries: List[_Entry],
        slot: Dict[object, int],
        answers: Mapping[int, List[ResultRow]],
    ) -> None:
        """Complete the futures whose unique-index has an answer.

        Always copies: an answer list may be shared by coalesced twins
        and may be (or be about to become) cache-resident, and a caller
        sorting/truncating its result must corrupt neither — the sync
        path hands every caller its own list too.
        """
        for query, future in entries:
            answer = answers.get(slot[query])
            if answer is not None and not future.done():
                future.set_result(list(answer))

    @staticmethod
    def _reject(entries: List[_Entry], exc: BaseException) -> None:
        for _query, future in entries:
            if future.done():
                continue
            try:
                future.set_exception(exc)
            except RuntimeError:
                # The future belongs to a loop that has already closed
                # (stale admission state); nobody can await it anymore.
                pass

    # ------------------------------------------------------------------
    # Replicas + maintenance
    # ------------------------------------------------------------------
    def _serving_executor(self) -> QueryExecutor:
        """The executor async submits are validated against: the replica
        set's snapshot, or the primary."""
        frozen = self._shards.frozen
        return self._executor if frozen is None else frozen

    def _road(self) -> Optional["ROAD"]:
        """The charged ROAD behind the executor, if there is one."""
        road = getattr(self._executor, "road", None)
        if road is not None:
            return road
        from repro.core.framework import ROAD

        return self._executor if isinstance(self._executor, ROAD) else None

    def _init_replicas(self) -> ReplicaSet:
        """Pick the replica set — the one place ``replica_mode`` decides."""
        if self.config.replicas and self._road() is None:
            raise ServiceError(
                "replicas need a ROAD-backed executor "
                f"(got {type(self._executor).__name__})"
            )
        if self.config.replicas and self.config.replica_mode == "process":
            # One shared-memory snapshot, N attached worker processes:
            # the workers are real CPUs, not interpreter time slices, and
            # the arrays exist once whatever the worker count.
            return ProcessReplicaPool(
                self._shared_snapshot(), workers=self.config.replicas
            )
        return LocalReplicas(
            self._executor, self._executor_lock, workers=self.config.replicas
        )

    def _shared_snapshot(self) -> "FrozenRoad":
        """A fresh ``backend="shm"`` snapshot of the charged road,
        compiling every attached directory, exactly as the primary
        engine's own ``list`` snapshot does."""
        road = self._road()
        assert road is not None
        return road.freeze(backend="shm")

    def _rebuild_replicas(self) -> None:
        """Re-freeze the process pool's snapshot after directory
        membership changed.

        Patches keep snapshot *contents* current, but cannot add or
        remove a compiled directory — only a fresh freeze can.  The pool
        publishes the new attach manifest and its workers re-attach
        between batches; a set holding no snapshot has nothing to swap.
        """
        if self._result_cache is not None:
            # Directory membership changed: every key's snapshot identity
            # is suspect, so the whole cache goes.
            self._result_cache.clear_all()
        if self._shards.replicas:
            self._shards.replace_snapshot(self._shared_snapshot())

    def attach_objects(
        self, objects: "ObjectSet", *, name: str, **kwargs: Any
    ) -> str:
        """Attach a provider through the executor.

        The executor decides its own snapshot lifecycle
        (:meth:`ROADEngine.attach_objects` invalidates a live snapshot);
        the service re-freezes the process pool's snapshot, which a
        maintenance patch cannot grow a directory into.
        """
        self._require_directories("attach_objects")
        with self._executor_lock:
            directory = self._executor.attach_objects(objects, name=name, **kwargs)
        if self._result_cache is not None:
            self._result_cache.invalidate_directory(directory)
        if self._shards.replicas:
            self._rebuild_replicas()
        return directory

    def detach_objects(self, name: str) -> None:
        """Detach a provider through the executor.

        The process pool's snapshot cannot compile an empty directory
        set, so there the last directory is refused *before* the
        executor is touched — failing in the rebuild would strand the
        workers serving the detached provider.
        """
        self._require_directories("detach_objects")
        if self._shards.replicas and self._executor.directory_names == [name]:
            raise ServiceError(
                f"cannot detach {name!r}: it is the last directory the "
                f"process replicas serve"
            )
        with self._executor_lock:
            self._executor.detach_objects(name)
        self._rebuild_replicas()

    def _require_directories(self, method: str) -> None:
        """Raise a typed error unless the executor manages directories.

        Directory management needs an executor that owns directories
        (ROAD or ROADEngine); baselines and bare snapshots get a
        :class:`ServiceError`, not an ``AttributeError``.
        """
        if not hasattr(self._executor, method):
            raise ServiceError(
                f"{type(self._executor).__name__} does not manage "
                f"Association Directories ({method} requires a ROAD-backed "
                f"executor)"
            )

    def apply_report(self, report: MaintenanceReport) -> None:
        """Reconcile the replica set with one maintenance report.

        The primary executor patches its own snapshot (ROADEngine's
        lifecycle), which is all inline and thread batches run on; the
        process pool patches its one shared snapshot inside the seqlock
        window every worker honours.
        """
        # Cache entries dirtied by this report die before any worker
        # could serve their keys post-patch; racing populates are
        # refused by the generation bump this performs.
        self._invalidate_cache(report)
        self._shards.apply(report, self._road())

    def _invalidate_cache(self, report: MaintenanceReport) -> None:
        """Report-driven cache eviction (no-op when the cache is off).

        Evicts the entries whose footprint the report could change;
        structural reports clear wholesale inside ``invalidate_report``.
        """
        cache = self._result_cache
        if cache is None:
            return
        started = time.perf_counter()
        cache.invalidate_report(report)
        self._cache_invalidate.observe((time.perf_counter() - started) * 1000.0)

    def _maintained(self, result: Any) -> Any:
        """Reconcile after a maintenance call; pass its result through."""
        report = (
            result
            if isinstance(result, MaintenanceReport)
            else getattr(self._executor, "last_report", None)
        )
        if report is not None:
            self.metrics.counter(
                "road_patches_total",
                "Maintenance patches processed, by report kind.",
                labels={"kind": report.kind},
            ).inc()
            self.apply_report(report)
        return result

    def insert_object(self, obj: Any, **kwargs: Any) -> Any:
        """Insert an object through the executor; reconcile the replicas."""
        with self._executor_lock:
            return self._maintained(self._executor.insert_object(obj, **kwargs))

    def delete_object(self, object_id: int, **kwargs: Any) -> Any:
        """Delete an object through the executor; reconcile the replicas."""
        with self._executor_lock:
            return self._maintained(
                self._executor.delete_object(object_id, **kwargs)
            )

    def update_object_attrs(
        self, object_id: int, attrs: Dict[str, Any], **kwargs: Any
    ) -> Any:
        """Update object attributes; reconcile the replicas."""
        with self._executor_lock:
            return self._maintained(
                self._executor.update_object_attrs(object_id, attrs, **kwargs)
            )

    def update_edge_distance(self, u: int, v: int, distance: float) -> Any:
        """Change an edge distance; reconcile the replicas."""
        with self._executor_lock:
            return self._maintained(
                self._executor.update_edge_distance(u, v, distance)
            )

    def add_edge(self, u: int, v: int, distance: float, **kwargs: Any) -> Any:
        """Open a road segment; reconcile the replicas."""
        with self._executor_lock:
            return self._maintained(
                self._executor.add_edge(u, v, distance, **kwargs)
            )

    def remove_edge(self, u: int, v: int) -> Any:
        """Close a road segment; reconcile the replicas."""
        with self._executor_lock:
            return self._maintained(self._executor.remove_edge(u, v))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush nothing, reject pending work, stop the worker pool."""
        for _since, entries in self._take_pending().values():
            self._reject(entries, ServiceError("service closed"))
        if self._result_cache is not None:
            self._result_cache.clear_all()
        self._shards.close()

    async def __aenter__(self) -> "RoadService":
        return self

    async def __aexit__(
        self, exc_type: object, exc: object, tb: object
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadService(executor={type(self._executor).__name__}, "
            f"replicas={self._shards.workers}, config={self.config})"
        )
