"""The replica hand-off: where an admitted batch actually executes.

:class:`~repro.serving.service.RoadService` hands every batch to one
*replica set*, picked once at construction: :class:`InlineReplicas` (no
shards — the batch runs on the primary executor inside the call),
:class:`ThreadReplicaSet` (one snapshot per pool thread, each behind its
own lock) or :class:`~repro.serving.process_pool.ProcessReplicaPool`
(worker processes attached to one shared-memory snapshot).  All three
have the surface the process pool has always had:

``submit(queries, directory, *, footprints=False)``
    Execute one batch; returns a :class:`concurrent.futures.Future`
    resolving to what :func:`execute_batch` returns.  A batch the set
    cannot take (closed, degraded, every worker dead) raises instead.
``apply(report, road)``
    Patch every snapshot the set holds with one maintenance report.
``replace_snapshot(*snapshots)``
    Swap in freshly frozen snapshots, one per entry of ``replicas``.
``stats()``
    Pool counters and liveness under mode-independent key names.
``replicas`` / ``frozen`` / ``workers`` / ``closed``
    The distinct snapshots held, the one submits are validated against
    (``None`` when unsharded), the worker count, and whether ``close()``
    — idempotent, and remembered — has run.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.framework import ROAD
    from repro.core.frozen import FrozenRoad
    from repro.core.maintenance import MaintenanceReport
    from repro.serving.dispatch import QueryExecutor

#: Counter names every replica set reports (``ProcessReplicaPool.stats()``
#: field names, so ``replica_pool_stats()`` is uniform across modes).
POOL_COUNTERS = ("batches", "queries", "syncs", "reloads", "retries", "worker_deaths")


def execute_batch(
    executor: "QueryExecutor",
    queries: Sequence[object],
    directory: str,
    footprints: bool,
) -> Any:
    """Execute one batch on one executor — the only place that does.

    Without ``footprints`` the batch is one ``execute_many`` (the
    per-predicate batch caches apply) and the answers come back as a
    list.  With it each query runs individually under its own
    :class:`~repro.core.search.SearchStats` and the result is
    ``(answers, [(visited_nodes, visited_rnets), ...])`` — the per-query
    visit sets the result cache records as invalidation footprints,
    frozen here (on the replica's thread or in its process) so the cache
    keeps these very objects instead of copying them under its lock.
    """
    if not footprints:
        return executor.execute_many(queries, directory=directory)
    from repro.core.search import SearchStats

    answers = []
    visited = []
    for query in queries:
        stats = SearchStats()
        answers.append(executor.execute(query, directory=directory, stats=stats))
        visited.append(
            (frozenset(stats.visited_nodes), frozenset(stats.visited_rnets))
        )
    return answers, visited


def _local_stats(
    counters: Dict[str, int], workers: int, closed: bool
) -> Dict[str, object]:
    """In-process replica stats under the process pool's key names."""
    return {
        **counters,
        "workers": workers,
        "alive": 0 if closed else workers,
        "closed": closed,
        # In-process replicas never serve a torn patch: a failed apply
        # raises straight to the maintenance caller under the shard lock.
        "degraded": False,
    }


class InlineReplicas:
    """No shards: batches execute on the primary executor, in the call."""

    workers = 0
    replicas: Tuple["FrozenRoad", ...] = ()
    frozen: Optional["FrozenRoad"] = None

    def __init__(self, executor: "QueryExecutor") -> None:
        self._executor = executor
        self.closed = False

    def submit(
        self, queries: Sequence[object], directory: str, *, footprints: bool = False
    ) -> "Future[Any]":
        """Run the batch now; a failure raises like a refused hand-off."""
        future: "Future[Any]" = Future()
        future.set_result(execute_batch(self._executor, queries, directory, footprints))
        return future

    def apply(
        self, report: "MaintenanceReport", road: Optional["ROAD"] = None
    ) -> None:
        """Nothing to patch: the primary executor reconciles itself."""

    def replace_snapshot(self, *snapshots: "FrozenRoad") -> None:
        """Nothing to swap: there are no shard snapshots."""

    def stats(self) -> Dict[str, object]:
        return _local_stats(dict.fromkeys(POOL_COUNTERS, 0), 0, self.closed)

    def close(self) -> None:
        self.closed = True


class ThreadReplicaSet:
    """One read-only snapshot per pool thread, each behind its own lock.

    Query batches execute on a *worker* thread holding their replica's
    lock; :meth:`apply` and :meth:`replace_snapshot` run on the caller's
    thread and take every lock in turn, so a patch or swap never lands
    under an executing batch.  The counters are touched only by the
    dispatching thread and the maintenance caller — informational, not
    synchronised.
    """

    def __init__(self, snapshots: Sequence["FrozenRoad"]) -> None:
        self._replicas: List["FrozenRoad"] = list(snapshots)
        self._replica_locks = [threading.Lock() for _ in self._replicas]
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._replicas), thread_name_prefix="road-svc"
        )
        self._round_robin = 0
        self._counters = dict.fromkeys(POOL_COUNTERS, 0)
        self.closed = False

    @property
    def replicas(self) -> Tuple["FrozenRoad", ...]:
        return tuple(self._replicas)

    @property
    def frozen(self) -> "FrozenRoad":
        """The snapshot submits are validated against (the first shard)."""
        return self._replicas[0]

    @property
    def workers(self) -> int:
        return len(self._replicas)

    def stats(self) -> Dict[str, object]:
        """``retries``/``worker_deaths`` stay 0 — threads neither
        re-attach nor die silently."""
        return _local_stats(self._counters, self.workers, self.closed)

    def submit(
        self, queries: Sequence[object], directory: str, *, footprints: bool = False
    ) -> "Future[Any]":
        """Dispatch one batch to the next replica's pool thread."""
        index = self._round_robin % len(self._replicas)
        future = self._pool.submit(
            self._run_locked, index, queries, directory, footprints
        )
        self._round_robin += 1
        self._counters["batches"] += 1
        self._counters["queries"] += len(queries)
        return future

    def _run_locked(
        self, index: int, queries: Sequence[object], directory: str, footprints: bool
    ) -> Any:
        """Worker-thread body: one batch on one locked replica."""
        with self._replica_locks[index]:
            return execute_batch(self._replicas[index], queries, directory, footprints)

    def apply(
        self, report: "MaintenanceReport", road: Optional["ROAD"] = None
    ) -> None:
        """Patch every replica, each locked against its in-flight batch."""
        for replica, lock in zip(self._replicas, self._replica_locks):
            with lock:
                replica.apply(report, road)
        self._counters["syncs"] += 1

    def replace_snapshot(self, *snapshots: "FrozenRoad") -> None:
        """Swap one fresh snapshot in per replica, each under its lock.

        The caller froze them outside any lock (a freeze costs seconds
        on a big network), so in-flight batches finish on the old
        snapshot and new batches only wait for the swap.
        """
        for index, lock in enumerate(self._replica_locks):
            with lock:
                self._replicas[index] = snapshots[index]
        self._counters["reloads"] += 1

    def close(self) -> None:
        """Let in-flight batches finish, then stop the pool threads."""
        self.closed = True
        self._pool.shutdown(wait=True)
