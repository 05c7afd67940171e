"""Process-shard serving over one shared-memory snapshot.

Thread replicas (:class:`~repro.serving.RoadService` with
``replica_mode="thread"``) time-slice one interpreter: the query hot
loop is pure Python, so N threads never buy N cores.  This module runs
the shards as **worker processes** instead, without N copies of the
compiled arrays: the primary freezes one ``backend="shm"`` snapshot
(every CSR array a named ``multiprocessing.shared_memory`` segment),
each worker attaches the same segments zero-copy
(:meth:`~repro.core.frozen.FrozenRoad.from_manifest`) and serves query
batches from its own interpreter — real CPU parallelism, one snapshot's
worth of memory.

Consistency is a seqlock over a tiny shared control vector
``[generation, sync_seq, stopping]``:

* The primary publishes every maintenance patch inside a generation
  window — generation goes odd, the patch lands as in-place slice
  writes on the shared arrays, a sync payload (what the segments cannot
  carry: view invalidation, object references/abstracts, or a full
  re-attach manifest when patching re-homed a segment) is enqueued to
  every worker, ``sync_seq`` is bumped, generation goes even.
* A worker serves a batch only on an even generation **after** applying
  every published sync payload, and re-checks the generation afterwards
  — a batch that overlapped a patch window is retried, so readers never
  return torn state; they retry instead.

The pool fronts this with :class:`concurrent.futures.Future` results so
the service's asyncio front-end awaits process batches exactly like
thread batches (``asyncio.wrap_future``).

Lifecycle: the pool owns the primary snapshot and the control segment;
``close()`` stops the workers (each detaches its attachments), then
closes both — the single owner unlinks every segment exactly once.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from concurrent.futures import Future
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.frozen import FrozenRoad
from repro.core.shm_arrays import ShmVector
from repro.serving.replicas import execute_batch

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from multiprocessing.connection import Connection
    from multiprocessing.context import SpawnContext
    from multiprocessing.queues import SimpleQueue

    from repro.core.maintenance import MaintenanceReport

#: Seconds a worker sleeps while the primary holds the patch window.
_PATCH_WAIT_S = 0.0002

#: Seconds the pool waits for each worker's ready handshake.
_READY_TIMEOUT_S = 60.0

#: Seconds ``close()`` grants a worker before escalating to terminate.
_STOP_TIMEOUT_S = 10.0


#: What :meth:`ProcessReplicaPool.path_stats` sums: the worker snapshots'
#: :meth:`FrozenRoad.path_stats` (deep) keys.
PATH_STATS = (
    "path_shared_entries",
    "path_table_entries",
    "path_shared_bytes",
    "path_table_bytes",
)


class ProcessPoolError(RuntimeError):
    """A pool-level failure: dead worker, closed pool, bad snapshot."""


class WorkerError(RuntimeError):
    """A query batch failed inside a worker process.

    Worker exceptions do not round-trip through pickle reliably (custom
    constructors), so the pool re-raises them as this typed wrapper
    carrying the original type name and message.
    """

    def __init__(self, exc_type: str, message: str) -> None:
        self.exc_type = exc_type
        super().__init__(f"worker raised {exc_type}: {message}")


class ProcessReplicaPool:
    """N worker processes serving one shared ``backend="shm"`` snapshot.

    Construct over the primary's shm snapshot; the pool spawns the
    workers (``spawn`` context — no forked locks or event loops), hands
    each the attach manifest, and confirms every worker's ready
    handshake before returning.  :meth:`submit` round-robins query
    batches to the workers and returns a
    :class:`concurrent.futures.Future`; :meth:`apply` publishes one
    maintenance report to the shared arrays under the seqlock;
    :meth:`replace_snapshot` swaps in a freshly frozen snapshot (the
    directory-membership path patching cannot cover).
    """

    def __init__(
        self,
        frozen: FrozenRoad,
        *,
        workers: int,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if frozen.backend != "shm":
            raise ProcessPoolError(
                "a process pool needs a backend='shm' snapshot whose "
                f"arrays live in shared segments, got {frozen.backend!r}"
            )
        self._frozen = frozen
        #: [generation, sync_seq, stopping] — the seqlock workers read,
        #: plus a stop flag so close() can abort workers parked inside a
        #: patch window that will never close (degraded pool).
        self._ctrl = ShmVector("q", [0, 0, 0])
        manifest = frozen.shm_manifest()
        self._segments = _segment_names(manifest)
        context: "SpawnContext" = multiprocessing.get_context("spawn")
        self._tasks: List["SimpleQueue[Any]"] = [
            context.SimpleQueue() for _ in range(workers)
        ]
        self._syncs: List["SimpleQueue[Any]"] = [
            context.SimpleQueue() for _ in range(workers)
        ]
        # One result pipe PER WORKER, not one shared queue: a shared
        # SimpleQueue serialises writers through one cross-process lock,
        # and a worker killed inside put() (SIGKILL lands between the
        # pipe write and the lock release — an easily-hit window, since
        # the listener completes the future the moment the bytes arrive)
        # would leave that lock held forever, wedging every survivor's
        # next result.  With a single writer per pipe there is no shared
        # lock to poison.
        result_ends = [context.Pipe(duplex=False) for _ in range(workers)]
        self._result_readers: List["Connection"] = [
            reader for reader, _writer in result_ends
        ]
        self._result_writers: List["Connection"] = [
            writer for _reader, writer in result_ends
        ]
        wake_r, wake_w = context.Pipe(duplex=False)
        self._wake_r: "Connection" = wake_r
        self._wake_w: "Connection" = wake_w
        self._ready = [threading.Event() for _ in range(workers)]
        self._futures: Dict[int, "Future[Any]"] = {}
        #: ticket -> worker index, so a worker death can fail exactly the
        #: futures routed to it.
        self._owners: Dict[int, int] = {}
        self._dead: Set[int] = set()
        self._state_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._ticket = 0
        self._round_robin = 0
        self._seq = 0
        self._closed = False
        #: True after frozen.apply() failed mid-patch: the shared arrays
        #: may be half-patched, the generation stays odd (workers pause),
        #: and only replace_snapshot() with a fresh freeze recovers.
        self._degraded = False
        self._counters = {
            "batches": 0,        # batches dispatched to workers
            "queries": 0,        # queries inside those batches
            "syncs": 0,          # seqlock publications broadcast
            "reloads": 0,        # syncs that re-attached segments
            "retries": 0,        # worker batch retries (patch overlap)
            "worker_deaths": 0,  # workers lost to crash/kill
        }
        #: Each worker's last-reported ChoosePath cache sizes, in
        #: :data:`PATH_STATS` order: ``frozen`` never serves a batch in
        #: this process, so only the workers know them.
        self._worker_paths: List[Tuple[int, ...]] = [
            (0,) * len(PATH_STATS) for _ in range(workers)
        ]
        self._listener = threading.Thread(
            target=self._listen, name="road-shard-results", daemon=True
        )
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(
                    index,
                    manifest,
                    self._ctrl.segment_name,
                    self._tasks[index],
                    self._syncs[index],
                    result_ends[index][1],
                ),
                name=f"road-shard-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        try:
            for process in self._processes:
                process.start()
            # start() has pickled the args (the spawn resource sharer
            # holds fd duplicates for the children), so the primary can
            # drop its copies of the write ends — a worker's exit then
            # EOFs its pipe instead of leaving it half-open.
            for writer in self._result_writers:
                writer.close()
            self._listener.start()
            self._await_ready()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> FrozenRoad:
        """The primary's shared snapshot (owner of every segment)."""
        return self._frozen

    @property
    def replicas(self) -> Tuple[FrozenRoad, ...]:
        """The distinct snapshots held: the one every worker attaches."""
        return (self._frozen,)

    @property
    def workers(self) -> int:
        return len(self._processes)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, object]:
        """Pool counters plus per-worker liveness."""
        with self._state_lock:
            counters = dict(self._counters)
            closed = self._closed
            degraded = self._degraded
            # Read the control words under the same lock acquisition as
            # the closed check: close() flips _closed (also under the
            # lock) before it releases the control segment, so these
            # memoryview reads can never race its close().
            generation = None if closed else int(self._ctrl[0])
            sync_seq = None if closed else int(self._ctrl[1])
        summary: Dict[str, object] = {
            **counters,
            "workers": self.workers,
            "alive": sum(1 for p in self._processes if p.is_alive()),
            "closed": closed,
            "degraded": degraded,
        }
        if not closed:  # the control segment is gone after close()
            summary["generation"] = generation
            summary["sync_seq"] = sync_seq
        return summary

    def path_stats(self) -> Dict[str, int]:
        """The live workers' cached ChoosePath results, summed.

        Each worker reports :meth:`FrozenRoad.path_stats` with every batch
        result: the entry counts as of that batch, the byte estimates as
        of its last deep pass (one per :data:`_DEEP_PATH_STATS_EVERY`
        batches).  A worker that has not run a batch counts zero.
        """
        with self._state_lock:
            reports = [
                paths
                for index, paths in enumerate(self._worker_paths)
                if index not in self._dead
            ]
        return {
            key: sum(paths[i] for paths in reports)
            for i, key in enumerate(PATH_STATS)
        }

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        queries: Sequence[object],
        directory: str,
        *,
        footprints: bool = False,
    ) -> "Future[Any]":
        """Dispatch one batch to the next worker; returns its future.

        The batch runs as one ``execute_many`` inside the worker (the
        per-predicate batch caches apply there, exactly as on a thread
        replica).  The future completes on the pool's listener thread.

        ``footprints`` selects the per-query shape of
        :func:`~repro.serving.replicas.execute_batch`, which is what the
        worker runs and the future resolves to.
        """
        future: "Future[Any]" = Future()
        with self._state_lock:
            if self._closed:
                raise ProcessPoolError("process pool is closed")
            if self._degraded:
                raise ProcessPoolError(
                    "process pool is degraded (a maintenance patch "
                    "failed mid-apply); replace_snapshot() with a fresh "
                    "freeze to resume serving"
                )
            alive = [
                i for i in range(len(self._processes)) if i not in self._dead
            ]
            if not alive:
                raise ProcessPoolError("every worker process has died")
            ticket = self._ticket
            self._ticket += 1
            index = alive[self._round_robin % len(alive)]
            self._round_robin += 1
            self._futures[ticket] = future
            self._owners[ticket] = index
            self._counters["batches"] += 1
            self._counters["queries"] += len(queries)
        self._tasks[index].put(
            ("batch", ticket, list(queries), directory, footprints)
        )
        return future

    # ------------------------------------------------------------------
    # Maintenance publication (the seqlock writer side)
    # ------------------------------------------------------------------
    def apply(self, report: "MaintenanceReport") -> str:
        """Patch the shared snapshot and publish the change to workers.

        The snapshot patches itself, once and in place, against the ROAD
        it was frozen from — every worker sees the new spans without
        copying — inside an odd generation window so no worker returns a
        half-patched read.
        Returns the snapshot's patch outcome (``"patched"`` /
        ``"recompiled"``).

        If the patch itself raises, the shared arrays may be left
        half-written; the pool does **not** resume serving them.  The
        window stays open (generation odd, workers pause), the pool goes
        degraded — :meth:`submit` and :meth:`apply` raise
        :class:`ProcessPoolError` — and :meth:`replace_snapshot` with a
        freshly frozen snapshot is the recovery path.
        """
        with self._publish_lock:
            with self._state_lock:
                if self._degraded:
                    raise ProcessPoolError(
                        "process pool is degraded (a previous patch "
                        "failed mid-apply); replace_snapshot() with a "
                        "fresh freeze before patching again"
                    )
            self._ctrl[0] = int(self._ctrl[0]) + 1  # odd: readers pause
            try:
                outcome = self._frozen.apply(report)
            except BaseException:
                # The shared arrays may be half-patched.  Leaving the
                # generation odd keeps every worker paused (no torn or
                # half-patched answers); replace_snapshot() closes the
                # window over a known-good snapshot.
                with self._state_lock:
                    self._degraded = True
                raise
            self._broadcast(report)
        return outcome

    def replace_snapshot(self, frozen: FrozenRoad) -> None:
        """Swap in a freshly frozen shm snapshot (directory changes).

        Patching keeps shard contents current but cannot add or remove
        a compiled directory; the ROAD's owner re-freezes and the pool
        publishes the new manifest — workers re-attach between batches.
        The old snapshot closes (and unlinks its segments) immediately;
        POSIX keeps the memory alive for workers still mapping it until
        their re-attach lands.

        This is also the recovery path out of a degraded pool (a patch
        that failed mid-apply): the still-open patch window stays open
        across the swap, so workers only resume — and only validate
        batches — after the reload payload pointing at the fresh
        snapshot is published.
        """
        if frozen.backend != "shm":
            raise ProcessPoolError(
                "replace_snapshot needs a backend='shm' snapshot, got "
                f"{frozen.backend!r}"
            )
        with self._publish_lock:
            generation = int(self._ctrl[0])
            if generation % 2 == 0:
                self._ctrl[0] = generation + 1
            old, self._frozen = self._frozen, frozen
            try:
                self._broadcast(None, force_reload=True)
            except BaseException:
                # Workers may hold a mix of old and new attachments;
                # keep the window open and the pool degraded rather
                # than resume over an inconsistent fleet.
                with self._state_lock:
                    self._degraded = True
                raise
            with self._state_lock:
                self._degraded = False
        if old is not frozen:
            old.close()

    def _broadcast(
        self,
        report: Optional["MaintenanceReport"],
        *,
        force_reload: bool = False,
    ) -> None:
        """Enqueue one sync payload everywhere; close the patch window.

        Payload selection: a changed segment set (a splice re-homed an
        array, or the snapshot recompiled/was replaced) forces a full
        re-attach manifest; object churn ships the refreshed directory
        state; a pure weight patch only invalidates worker view caches.
        """
        self._seq += 1
        manifest = self._frozen.shm_manifest()
        segments = _segment_names(manifest)
        payload: Tuple[Any, ...]
        if force_reload or segments != self._segments:
            self._segments = segments
            payload = ("reload", self._seq, manifest)
            with self._state_lock:
                self._counters["reloads"] += 1
        elif report is not None and report.object_churn:
            payload = ("objects", self._seq, manifest["directories"])
        else:
            payload = ("arrays", self._seq)
        for queue in self._syncs:
            queue.put(payload)
        with self._state_lock:
            self._counters["syncs"] += 1
        self._ctrl[1] = self._seq
        generation = int(self._ctrl[0])
        self._ctrl[0] = generation + (generation % 2)  # even: resume

    # ------------------------------------------------------------------
    # Listener + lifecycle
    # ------------------------------------------------------------------
    def _await_ready(self) -> None:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        for index, event in enumerate(self._ready):
            if event.wait(max(0.0, deadline - time.monotonic())):
                continue
            process = self._processes[index]
            raise ProcessPoolError(
                f"worker {index} failed to attach the shared snapshot "
                f"(alive={process.is_alive()}, "
                f"exitcode={process.exitcode})"
            )

    def _listen(self) -> None:
        """Listener-thread body: results, liveness, and shutdown in one.

        Waits on every worker's result pipe *and* its process sentinel
        (plus the pool's private wake pipe, which ``close()`` pokes).
        A readable pipe completes futures; a fired sentinel is a worker
        death — ``WorkerError`` only covers exceptions raised inside a
        live worker, so without the sentinels a segfault/OOM-kill would
        leave the victim's in-flight future pending forever and keep the
        round-robin routing batches at a corpse.
        """
        readers = {
            reader: index
            for index, reader in enumerate(self._result_readers)
        }
        sentinels = {
            process.sentinel: index
            for index, process in enumerate(self._processes)
        }
        while True:
            ready = multiprocessing.connection.wait(
                [self._wake_r, *readers, *sentinels]
            )
            with self._state_lock:
                if self._closed:
                    return
            # Results before sentinels: a worker that answered and then
            # exited must complete its future, not fail it.
            for conn in list(readers):
                if conn not in ready:
                    continue
                if not self._drain(conn, readers[conn]):
                    del readers[conn]
            for sentinel in list(sentinels):
                if sentinel not in ready:
                    continue
                index = sentinels.pop(sentinel)
                reader = self._result_readers[index]
                if reader in readers and not self._drain(reader, index):
                    del readers[reader]
                self._on_worker_death(index)

    def _drain(self, conn: "Connection", index: int) -> bool:
        """Consume every complete message on one result pipe.

        Returns False once the pipe is dead (worker exited or was killed
        mid-send) — a truncated trailing message is simply dropped; the
        sentinel path fails the future it belonged to.
        """
        try:
            while conn.poll():
                self._handle(conn.recv(), index)
        except (EOFError, OSError):
            return False
        return True

    def _handle(self, item: Tuple[Any, ...], index: int) -> None:
        """Apply one worker message (ready handshake or batch result)."""
        if item[0] == "ready":
            self._ready[item[1]].set()
            return
        _tag, ticket, ok, payload, retries, paths = item
        with self._state_lock:
            future = self._futures.pop(ticket, None)
            self._owners.pop(ticket, None)
            self._counters["retries"] += retries
            self._worker_paths[index] = paths
        if future is None:
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(WorkerError(payload[0], payload[1]))

    def _on_worker_death(self, index: int) -> None:
        """Fail the dead worker's in-flight futures; stop routing to it."""
        process = self._processes[index]
        with self._state_lock:
            if self._closed or index in self._dead:
                return
            self._dead.add(index)
            self._counters["worker_deaths"] += 1
            doomed = [
                ticket
                for ticket, owner in self._owners.items()
                if owner == index
            ]
            futures = [
                future
                for ticket in doomed
                if (future := self._futures.pop(ticket, None)) is not None
            ]
            for ticket in doomed:
                self._owners.pop(ticket, None)
        error = ProcessPoolError(
            f"worker {index} died (exitcode={process.exitcode}) with the "
            "batch in flight"
        )
        for future in futures:
            if not future.done():
                future.set_exception(error)

    def close(self) -> None:
        """Stop workers, fail pending futures, release every segment.

        Idempotent.  Workers detach their segment attachments on the
        way out; the pool (sole owner) then unlinks the snapshot's
        segments and the control vector — exactly once.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        # The stop word unblocks workers spinning inside a patch window
        # that will never close (degraded pool) so they can reach the
        # "stop" task instead of waiting out the terminate timeout.
        self._ctrl[2] = 1
        for queue in self._tasks:
            queue.put(("stop",))
        for process in self._processes:
            if process.pid is None:
                continue
            process.join(timeout=_STOP_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_STOP_TIMEOUT_S)
        if self._listener.is_alive():
            self._wake_w.send(("stop",))  # unblock the connection wait
            self._listener.join(timeout=_STOP_TIMEOUT_S)
        with self._state_lock:
            pending, self._futures = self._futures, {}
            self._owners = {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ProcessPoolError("process pool closed with the batch "
                                     "in flight")
                )
        # A closed pool stays referenced (it still answers stats()), and
        # a queue's locks are named semaphores that persist until the
        # queue is collected: drop the queues with the workers.
        self._tasks, self._syncs = [], []
        for reader in self._result_readers:
            reader.close()
        for writer in self._result_writers:
            writer.close()  # no-op normally; real on failed-start paths
        self._wake_r.close()
        self._wake_w.close()
        self._ctrl.close()
        self._frozen.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessReplicaPool(workers={self.workers}, "
            f"sync_seq={self._seq}, closed={self._closed})"
        )


def _segment_names(manifest: Dict[str, Any]) -> FrozenSet[str]:
    """The shared-segment name set a manifest references."""
    return frozenset(
        segment for segment, _typecode in manifest["segments"].values()
    )


# ---------------------------------------------------------------------------
# Worker process body
# ---------------------------------------------------------------------------

#: A worker recomputes its path-cache byte estimates (a walk over every
#: cached row) once per this many batches; counts go with every batch.
_DEEP_PATH_STATS_EVERY = 256


class _WorkerState:
    """One worker's mutable serving state (snapshot + sync progress)."""

    __slots__ = ("frozen", "applied_seq", "retries", "batches", "path_bytes")

    def __init__(self, frozen: FrozenRoad) -> None:
        self.frozen = frozen
        self.applied_seq = 0
        self.retries = 0
        self.batches = 0
        self.path_bytes = (0, 0)

    def path_stats(self) -> Tuple[int, ...]:
        """:meth:`FrozenRoad.path_stats` after one batch, in
        :data:`PATH_STATS` order (a tuple keeps the result message small)."""
        if self.batches % _DEEP_PATH_STATS_EVERY == 0:
            stats = self.frozen.path_stats(deep=True)
            self.path_bytes = (stats[PATH_STATS[2]], stats[PATH_STATS[3]])
        else:
            stats = self.frozen.path_stats()
        self.batches += 1
        return (stats[PATH_STATS[0]], stats[PATH_STATS[1]], *self.path_bytes)


def _worker_main(
    worker_id: int,
    manifest: Dict[str, Any],
    ctrl_segment: str,
    tasks: "SimpleQueue[Any]",
    syncs: "SimpleQueue[Any]",
    results: "Connection",
) -> None:
    """Worker-process entry point: attach, handshake, serve batches.

    Spawn-friendly (module-level, picklable arguments only).  The
    worker owns no shared segment — its snapshot and control vector are
    attachments, detached on exit; the primary alone unlinks.  Results
    go over this worker's private pipe — no lock shared with the other
    workers, so this worker dying mid-send cannot wedge anyone else.
    """
    frozen = FrozenRoad.from_manifest(manifest)
    ctrl = ShmVector.attach(ctrl_segment, "q")
    state = _WorkerState(frozen)
    results.send(("ready", worker_id))
    try:
        while True:
            item = tasks.get()
            if item[0] == "stop":
                return
            _tag, ticket, queries, directory, footprints = item
            state.retries = 0
            try:
                ok, payload = True, _serve_batch(
                    state, ctrl, syncs, queries, directory, footprints
                )
            except Exception as exc:  # noqa: BLE001 — fan the error out
                ok, payload = False, (type(exc).__name__, str(exc))
            results.send(
                ("done", ticket, ok, payload, state.retries, state.path_stats())
            )
    finally:
        state.frozen.close()
        ctrl.close()
        results.close()


def _serve_batch(
    state: _WorkerState,
    ctrl: ShmVector,
    syncs: "SimpleQueue[Any]",
    queries: List[object],
    directory: str,
    footprints: bool,
) -> Any:
    """One batch under the seqlock: sync, execute, validate, retry.

    The read is consistent when the generation was even and unchanged
    across the whole execution and every published sync payload had
    been applied first.  A batch that overlapped a patch window retries
    — by then the catch-up loop has applied the new state, so the retry
    serves post-patch answers (never torn ones).  A retry re-executes
    the whole batch, so a footprint never mixes pre- and post-patch
    visit sets.
    """
    while True:
        _catch_up(state, ctrl, syncs)
        generation = int(ctrl[0])
        try:
            answers = execute_batch(state.frozen, queries, directory, footprints)
        except Exception:
            # A patch window overlapping the read can surface as an
            # exception (offsets mid-splice); only a quiescent failure
            # is a real error.
            if int(ctrl[0]) == generation and generation % 2 == 0:
                raise
            state.retries += 1
            continue
        # The even check matters even though _catch_up only returns on
        # even generations: the primary can open a patch window between
        # _catch_up returning and the sample above, and a window that
        # outlasts the whole batch leaves both control words looking
        # unchanged around a torn read.
        if (
            generation % 2 == 0
            and int(ctrl[0]) == generation
            and state.applied_seq >= int(ctrl[1])
        ):
            return answers
        state.retries += 1


def _catch_up(
    state: _WorkerState, ctrl: ShmVector, syncs: "SimpleQueue[Any]"
) -> None:
    """Wait out any patch window and apply every published sync payload.

    The primary enqueues the payload *before* bumping ``sync_seq``, so
    whenever ``applied_seq`` trails the published sequence the payload
    is already in (or on its way into) this worker's sync queue — the
    blocking ``get`` cannot starve.

    A degraded pool leaves the patch window open indefinitely; the stop
    word (``ctrl[2]``, set by the primary's ``close()``) aborts the wait
    so the worker can drain its task queue and exit.

    A ``"reload"`` re-attaches the whole snapshot, so every payload
    queued before it is skipped — an earlier reload's segments may
    already be unlinked by the later swap.
    """
    while True:
        if int(ctrl[2]):
            raise ProcessPoolError("process pool is stopping")
        if int(ctrl[0]) % 2:
            time.sleep(_PATCH_WAIT_S)
            continue
        published = int(ctrl[1])
        if state.applied_seq >= published:
            return
        pending = [syncs.get()]
        while pending[-1][1] < published:
            pending.append(syncs.get())
        start = max(
            (i for i, payload in enumerate(pending) if payload[0] == "reload"),
            default=0,
        )
        for payload in pending[start:]:
            _apply_sync(state, payload)


def _apply_sync(state: _WorkerState, payload: Tuple[Any, ...]) -> None:
    """Apply one published sync payload to this worker's snapshot."""
    kind, seq = payload[0], payload[1]
    if kind == "reload":
        replacement = FrozenRoad.from_manifest(payload[2])
        state.frozen.close()
        state.frozen = replacement
    elif kind == "objects":
        state.frozen.sync_directories(payload[2])
    else:  # "arrays"
        state.frozen.refresh_views()
    state.applied_seq = seq
