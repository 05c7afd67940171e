"""The :class:`RoadService` admission pipeline: one front door for queries.

Every engine answers ``execute`` / ``execute_many`` through the dispatch
protocol (:mod:`repro.core.dispatch`); a :class:`RoadService` built from
a :class:`~repro.serving.config.ServiceConfig` puts sync
``run``/``run_many`` and an **asyncio front-end** in front of one of
them.  ``await service.submit(query)`` parks the query in a
per-(directory, predicate) admission bucket.  Admission is
**work-conserving**: while a replica is free the buckets flush at the
end of the current event-loop tick (one ``gather`` is one batch); only
while every replica is busy are they held, until a batch completes,
``max_batch`` queries are pending or ``max_delay_ms`` has passed.  A
flush sends each bucket through one pipeline, whatever the
configuration:

1. **coalesce** — identical in-flight queries fold into one;
2. **cache-split** — the result cache answers what it can (hits are
   delivered at once); with the cache off everything is a miss;
3. **execute** — the misses go, as one batch sharing its predicate
   caches, to the *replica set* picked at construction
   (:mod:`repro.serving.replicas`);
4. **populate** — executed answers enter the cache under their
   visit-set footprints, unless a patch landed mid-flight;
5. **deliver** — every caller's future completes with its own copy.

Writes go through :meth:`RoadService.write` under the one executor
lock, but the service never touches a ROAD: the executor (a
:class:`~repro.core.dispatch.RoadOwner`; :meth:`RoadService.build`
makes a :class:`~repro.core.owner.SnapshotOwner`, which serves every
query from its compiled snapshot) applies each declared write
(:data:`~repro.queries.writes.WRITE_TYPES`) and updates its own
snapshot, and the service fans the write's
:class:`~repro.core.maintenance.MaintenanceReport` out to the result
cache and to the process pool's snapshot, which the owner froze for it.

Typical use::

    config = ServiceConfig(replicas=2)
    service = RoadService.build(network, objects, config=config)
    nearest = service.run(KNNQuery(node, k=5))          # sync
    answers = await asyncio.gather(                     # async, batched
        *(service.submit(q) for q in queries)
    )

Sync, async-batched and sharded-replica paths return byte-identical
results (:func:`repro.eval.metrics.snapshot_divergences` probes).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.core.dispatch import (
    QueryExecutor,
    RoadOwner,
    UnknownNodeError,
    UnsupportedQueryError,
)
from repro.core.maintenance import MaintenanceReport
from repro.core.owner import SnapshotOwner
from repro.queries.types import ResultRow
from repro.queries.writes import DeleteObject, InsertObject, UpdateEdgeDistance
from repro.serving.config import ServiceConfig
from repro.serving.metrics import FLUSH_REASONS, MetricsRegistry, ServiceMetrics
from repro.serving.process_pool import ProcessReplicaPool
from repro.serving.replicas import LocalReplicas
from repro.serving.result_cache import ResultCache, query_nodes

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.search import SearchStats
    from repro.graph.network import RoadNetwork
    from repro.objects.model import ObjectSet
    from repro.storage.pager import PageManager

__all__ = ["FLUSH_REASONS", "RoadService", "ServiceError"]

#: One admitted (query, completion future) pair; the future completes
#: with that query's result list.
_Entry = Tuple[object, "asyncio.Future[List[ResultRow]]"]

#: One admission bucket: when it was opened (``perf_counter``) and its
#: entries, keyed in ``RoadService._pending`` by (directory, predicate).
_Buckets = Dict[Tuple[str, object], Tuple[float, List[_Entry]]]

#: What the execute stage hands batches to (:mod:`repro.serving.replicas`
#: documents the shared surface).
ReplicaSet = Union[LocalReplicas, ProcessReplicaPool]


class ServiceError(RuntimeError):
    """A service-level misconfiguration (e.g. replicas without a ROAD)."""


class RoadService:
    """The serving facade over one :class:`~repro.core.dispatch.QueryExecutor`.

    Construct over an existing executor (a
    :class:`~repro.core.owner.SnapshotOwner`, a charged
    :class:`~repro.core.framework.ROAD`, a
    :class:`~repro.core.frozen.FrozenRoad` or any baseline), or let
    :meth:`build` construct the ROAD and its snapshot owner the config
    describes.  Replicas and writes need an executor that owns a ROAD.

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
        # -- async admission state (touched only from the loop thread) --
        self._pending: _Buckets = {}
        self._pending_count = 0
        #: Batches handed to a replica and not yet completed.
        self._in_flight = 0
        self._flush_handle: Optional[asyncio.Handle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._meters = ServiceMetrics(
            self.metrics,
            pool_stats=self.replica_pool_stats,
            snapshot_memory=self._snapshot_memory,
        )
        self._result_cache: Optional[ResultCache] = None
        if self.config.result_cache:
            self._result_cache = self._meters.cache = ResultCache(
                self.config.cache_budget,
                counters=dict(self._meters.cache_counters),
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
        """Build the ROAD the config describes, its
        :class:`~repro.core.owner.SnapshotOwner`, and wrap that.

        ``config=None`` reads the environment overrides
        (:meth:`ServiceConfig.from_env`).  Extra keyword arguments are
        forwarded to :meth:`SnapshotOwner.build` (``providers``,
        ``bisector``, ``abstract_factory``, ...).
        """
        if config is None:
            config = ServiceConfig.from_env()
        owner = SnapshotOwner.build(
            network,
            objects,
            pager,
            levels=config.levels,
            fanout=config.fanout,
            **engine_kwargs,
        )
        return cls(owner, config=config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executor(self) -> QueryExecutor:
        """The primary executor queries run on (replicas aside)."""
        return self._executor

    @property
    def replicas(self) -> Tuple[QueryExecutor, ...]:
        """The snapshot the replica set holds: the process pool's one
        shared snapshot, or ``()`` when batches run on the primary
        itself (probe ``executor.frozen`` then)."""
        return self._shards.replicas

    def stats(self) -> Dict[str, object]:
        """Serving counters plus the executor's own stats when it has any."""
        summary: Dict[str, object] = {
            "service": dict(self._meters.counts),
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
        """Replica-pool counters under mode-independent key names (the
        :meth:`ProcessReplicaPool.stats` keys), reported after
        ``close()`` too — ``closed`` is how ``/healthz`` learns the
        service is down."""
        return self._shards.stats()

    def _snapshot_memory(self) -> Mapping[str, object]:
        """The serving snapshot's ``memory_stats()``; empty when none
        serves (the metrics gauges read it once per scrape)."""
        snapshot = self._serving_executor().frozen
        if snapshot is None:
            return {}
        # The primary's snapshot may be mid-batch on a pool thread.
        with self._executor_lock:
            stats = snapshot.memory_stats()
        if isinstance(self._shards, ProcessReplicaPool):
            # Process workers serve the batches on attachments of their
            # own, each caching ChoosePath results the primary never sees:
            # the gauges report every process's caches together.
            for key, value in self._shards.path_stats().items():
                stats[key] = cast(int, stats[key]) + value
        return stats

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
        self._meters.count("submitted")
        self._meters.count_kind(type(query).__name__)
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
            self._meters.latency.observe((time.perf_counter() - start) * 1000.0)

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
        self._meters.count("flushes")
        self._meters.flush_reasons[reason].inc()
        now = time.perf_counter()
        for (directory, _predicate), (since, entries) in pending.items():
            self._meters.admit_wait.observe((now - since) * 1000.0)
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
                self._meters.cache_stage.observe(split_ms)
        else:  # cache off: the split yields "all misses"
            hits, miss_idx, keys, generation = {}, range(len(unique)), [], (0, 0)
        if hits:
            self._deliver(entries, slot, hits)  # before the misses execute
        if not miss_idx:
            return
        misses = [unique[index] for index in miss_idx]
        self._meters.count("batches")
        self._meters.count("executed", len(misses))
        self._meters.batch_sizes.observe(float(len(misses)))

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
                self._meters.cache_stage.observe(
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
        self._meters.count("coalesced", len(entries) - len(unique))
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
    # Replicas + writes
    # ------------------------------------------------------------------
    def _serving_executor(self) -> QueryExecutor:
        """The executor async submits are validated against: the replica
        set's snapshot, or the primary."""
        frozen = self._shards.frozen
        return self._executor if frozen is None else frozen

    def _owner(self, method: str) -> RoadOwner:
        """The executor as the ROAD's owner, or a typed refusal.

        Replicas and writes need the code that holds the ROAD: baselines
        and bare snapshots get a :class:`ServiceError`, not an
        ``AttributeError``.
        """
        if not isinstance(self._executor, RoadOwner):
            raise ServiceError(
                f"{type(self._executor).__name__} does not manage a ROAD "
                f"or its Association Directories ({method} needs a "
                f"ROAD-backed executor)"
            )
        return self._executor

    def _init_replicas(self) -> ReplicaSet:
        """Pick the replica set — the one place ``replica_mode`` decides."""
        if self.config.replicas:
            owner = self._owner("replicas")
            if self.config.replica_mode == "process":
                # One shared-memory snapshot, N attached worker processes:
                # the workers are real CPUs, not interpreter time slices,
                # and the arrays exist once whatever the worker count.
                return ProcessReplicaPool(
                    owner.freeze(backend="shm"), workers=self.config.replicas
                )
        return LocalReplicas(
            self._executor, self._executor_lock, workers=self.config.replicas
        )

    def attach_objects(
        self, objects: "ObjectSet", *, name: str, **kwargs: Any
    ) -> Any:
        """Attach a provider through the owner, which re-freezes its own
        snapshot; returns what the owner's ``attach_objects`` returns."""
        owner = self._owner("attach_objects")
        with self._executor_lock:
            directory = owner.attach_objects(objects, name=name, **kwargs)
            self._directories_changed(owner, name)
        return directory

    def detach_objects(self, name: str) -> None:
        """Detach a provider through the owner.

        The process pool's snapshot cannot compile an empty directory
        set, so there the last directory is refused *before* the owner
        is touched — failing in the re-freeze would strand the workers
        serving the detached provider.
        """
        owner = self._owner("detach_objects")
        if self._shards.replicas and owner.directory_names == [name]:
            raise ServiceError(
                f"cannot detach {name!r}: it is the last directory the "
                f"process replicas serve"
            )
        with self._executor_lock:
            owner.detach_objects(name)
            self._directories_changed(owner, name)

    def _directories_changed(self, owner: RoadOwner, name: str) -> None:
        """Reconcile the cache and the replicas with an attach or detach
        of directory ``name``, in every replica mode alike.

        Only ``name``'s cached answers go (the Route Overlay and the other
        directories are untouched, so their answers stand).  A patch
        cannot add or remove a compiled directory, so the process pool
        swaps in a fresh ``shm`` freeze of the owner's.
        """
        if self._result_cache is not None:
            self._result_cache.invalidate_directory(name)
        if self._shards.replicas:
            self._shards.replace_snapshot(owner.freeze(backend="shm"))

    def apply_report(self, report: MaintenanceReport) -> None:
        """Reconcile the result cache and the replica set with one report.

        The owner has already patched its own snapshot, which is all
        inline and thread batches run on; the process pool patches its
        one shared snapshot inside the seqlock window every worker
        honours.
        """
        # Cache entries dirtied by this report die before any worker
        # could serve their keys post-patch; racing populates are
        # refused by the generation bump this performs.
        cache = self._result_cache
        if cache is not None:
            started = time.perf_counter()
            cache.invalidate_report(report)
            self._meters.cache_invalidate.observe(
                (time.perf_counter() - started) * 1000.0
            )
        self._shards.apply(report)

    def write(self, w: object) -> MaintenanceReport:
        """Apply one declared write through the owner, then fan its
        report out to the result cache and the replica set; returns the
        report."""
        owner = self._owner("write")
        with self._executor_lock:
            report = owner.write(w)
            self._meters.count_patch(report.kind)
            self.apply_report(report)
        return report

    # The three writes ``road_bench``'s ``workloads.apply_maintenance``
    # calls by name, one constructor each over :meth:`write`; they go
    # once the benchmark moves to ``write`` (ROADMAP item 1).
    def insert_object(self, obj: Any, **kwargs: Any) -> MaintenanceReport:
        return self.write(InsertObject(obj, **kwargs))

    def delete_object(self, object_id: int, **kwargs: Any) -> MaintenanceReport:
        return self.write(DeleteObject(object_id, **kwargs))

    def update_edge_distance(
        self, u: int, v: int, distance: float
    ) -> MaintenanceReport:
        return self.write(UpdateEdgeDistance(u, v, distance))

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
