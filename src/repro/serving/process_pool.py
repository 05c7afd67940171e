"""Process-shard serving over one shared-memory snapshot.

Thread replicas (:class:`~repro.serving.RoadService` with
``replica_mode="thread"``) time-slice one interpreter: the query hot
loop is pure Python, so N threads never buy N cores.  This module runs
the shards as **worker processes** instead, without N copies of the
compiled arrays: the primary freezes one ``backend="shm"`` snapshot
(every CSR array an anonymous ``memfd`` segment), each worker maps the
same segments zero-copy (:meth:`~repro.core.frozen.FrozenRoad.from_manifest`)
and serves query batches from its own interpreter — real CPU
parallelism, one snapshot's worth of memory.

Transport: a worker is a plain ``subprocess.Popen`` child, in the
primary's process group and started with the primary's interpreter
flags.  It inherits two descriptors: the seqlock's control segment and
its end of a Unix socketpair — the one channel, wrapped in
``multiprocessing.connection.Connection``, that carries tasks and sync
payloads in and results out.  Snapshot segments travel over that
channel as descriptors (``socket.send_fds``), at boot and whenever the
snapshot is replaced.  Nothing here starts a ``multiprocessing``
process, queue or semaphore, so no resource tracker runs, and the
worker's entry point (:func:`_worker_main`) imports neither asyncio nor
the serving front-end.

Consistency is a seqlock over a tiny shared control vector
``[generation, sync_seq]``:

* The primary publishes every maintenance patch inside a generation
  window — generation goes odd, the patch lands as in-place slice
  writes on the shared arrays, a sync payload (what the segments cannot
  carry: view invalidation and the re-map of a grown segment, object
  references/abstracts, or a whole snapshot with its descriptors after a
  recompile or a swap) is sent to every worker, ``sync_seq`` is bumped,
  generation goes even.
* A worker serves a batch only on an even generation **after** applying
  every published sync payload, and re-checks the generation afterwards
  — a batch that overlapped a patch window is retried, so readers never
  return torn state; they retry instead.

The pool fronts this with :class:`concurrent.futures.Future` results so
the service's asyncio front-end awaits process batches exactly like
thread batches (``asyncio.wrap_future``).

Lifecycle: the pool owns the primary snapshot and the control segment;
``close()`` stops the workers, then closes both.  No segment has a name:
the kernel frees each once its last descriptor and mapping are gone, so
a worker — or the whole process group — killed outright leaks nothing.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import Connection, wait
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

import repro
from repro.core.frozen import FrozenRoad
from repro.core.shm_arrays import ShmVector
from repro.serving.replicas import execute_batch

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.maintenance import MaintenanceReport

#: Seconds a worker waits on its channel per look at an open patch window.
_PATCH_WAIT_S = 0.0002

#: Seconds the pool waits for each worker's ready handshake.
_READY_TIMEOUT_S = 60.0

#: Seconds ``close()`` grants a worker before killing it.
_STOP_TIMEOUT_S = 10.0

#: Descriptors per ``sendmsg`` (the kernel's SCM_MAX_FD is 253).
_FDS_PER_SEND = 250


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

    Construct over the primary's shm snapshot; the pool starts the
    workers, sends each the snapshot's descriptors, and confirms every
    worker's ready handshake before returning.  :meth:`submit`
    round-robins query batches to the workers and returns a
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
        #: [generation, sync_seq] — the seqlock workers read.
        self._ctrl = ShmVector("q", [0, 0])
        self._workers = workers
        #: One channel per worker: a single writer per direction, so a
        #: worker killed mid-send cannot wedge anyone else's results.
        self._channels: List[Connection] = []
        self._processes: List["subprocess.Popen[bytes]"] = []
        #: Tasks, syncs and the stop message reach one worker from several
        #: threads; each message (and the descriptors after it) goes whole.
        self._send_locks = [threading.Lock() for _ in range(workers)]
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
            "reloads": 0,        # syncs that re-sent a whole snapshot
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
        try:
            for _ in range(workers):
                self._spawn()
            # Every worker is importing by now; each takes its snapshot
            # as soon as it is ready to read.
            self._post_all(("reload", 0, frozen.shm_manifest()))
            self._listener.start()
            self._await_ready()
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> None:
        """Start one worker on a fresh socketpair."""
        ours, theirs = socket.socketpair()
        with ours, theirs:
            inherited = (theirs.fileno(), self._ctrl.descriptor)
            process = subprocess.Popen(
                _worker_command(*inherited),
                stdin=subprocess.DEVNULL,
                pass_fds=inherited,
            )
            self._processes.append(process)
            self._channels.append(Connection(ours.detach()))

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
        return self._workers

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
            "alive": sum(1 for p in self._processes if p.poll() is None),
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
            alive = [i for i in range(self._workers) if i not in self._dead]
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
        # A worker that died before reading this fails the future through
        # the listener, which sees its channel close.
        self._post(index, ("batch", ticket, list(queries), directory, footprints))
        return future

    def _post(self, index: int, message: Tuple[Any, ...]) -> None:
        """Send one message to a worker; a gone worker's is dropped.

        A ``"reload"`` message is followed on the same channel, under the
        same lock, by the descriptors its manifest names.
        """
        channel = self._channels[index]
        try:
            with self._send_locks[index]:
                channel.send(message)
                if message[0] == "reload":
                    _send_fds(channel, _descriptors(message[2]))
        except OSError:
            pass

    def _post_all(self, message: Tuple[Any, ...]) -> None:
        for index in range(len(self._channels)):
            self._post(index, message)

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
            # A recompile rebuilds every array in fresh segments.
            self._broadcast(report, reload=outcome == "recompiled")
        return outcome

    def replace_snapshot(self, frozen: FrozenRoad) -> None:
        """Swap in a freshly frozen shm snapshot (directory changes).

        Patching keeps shard contents current but cannot add or remove
        a compiled directory; the ROAD's owner re-freezes and the pool
        sends the new snapshot's descriptors — workers re-attach between
        batches.  The old snapshot closes immediately; its memory lives
        on in the workers still mapping it until their re-attach lands.

        This is also the recovery path out of a degraded pool (a patch
        that failed mid-apply): the still-open patch window stays open
        across the swap, so workers only resume — and only validate
        batches — after the reload payload carrying the fresh snapshot
        is published.
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
                self._broadcast(None, reload=True)
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
        self, report: Optional["MaintenanceReport"], *, reload: bool
    ) -> None:
        """Send one sync payload everywhere; close the patch window.

        Payload selection: fresh segments (a recompile or a swapped
        snapshot) send the whole snapshot; object churn ships the
        refreshed directory state; anything else — a weight patch, or a
        splice that grew a segment in place — only has workers drop
        their views and re-map what grew.
        """
        self._seq += 1
        payload: Tuple[Any, ...]
        if reload:
            payload = ("reload", self._seq, self._frozen.shm_manifest())
            with self._state_lock:
                self._counters["reloads"] += 1
        elif report is not None and report.object_churn:
            payload = (
                "objects",
                self._seq,
                self._frozen.export_parts()["directories"],
            )
        else:
            payload = ("arrays", self._seq)
        self._post_all(payload)
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
            event.wait(max(0.0, deadline - time.monotonic()))
            if event.is_set() and index not in self._dead:
                continue
            raise ProcessPoolError(
                f"worker {index} failed to attach the shared snapshot "
                f"(exitcode={self._processes[index].poll()})"
            )

    def _listen(self) -> None:
        """Listener-thread body: results and liveness in one.

        A worker's channel is readable when results arrive and when the
        worker is gone: its end closes with it, however it died, so
        end-of-file is the death notice — ``WorkerError`` only covers
        exceptions raised inside a live worker, and without it a
        segfault/OOM-kill would leave the victim's in-flight future
        pending forever and keep the round-robin routing batches at a
        corpse.  Results always precede the end-of-file, so a worker
        that answered and then exited completes its future.  The thread
        ends once every channel has closed (``close()`` stops every
        worker).
        """
        live = {channel: index for index, channel in enumerate(self._channels)}
        while live:
            for ready in wait(list(live)):
                channel = cast(Connection, ready)
                if not self._drain(channel, live[channel]):
                    self._on_worker_death(live.pop(channel))

    def _drain(self, channel: Connection, index: int) -> bool:
        """Consume every complete message on one channel.

        Returns False once the channel is dead (worker exited or was
        killed mid-send) — a truncated trailing message is simply
        dropped; the death path fails the future it belonged to.
        """
        try:
            while channel.poll():
                self._handle(channel.recv(), index)
        except (EOFError, OSError):
            return False
        return True

    def _handle(self, item: Tuple[Any, ...], index: int) -> None:
        """Apply one worker message (ready handshake or batch result)."""
        if item[0] == "ready":
            self._ready[index].set()
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
        try:
            exitcode = process.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            exitcode = None
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
        self._ready[index].set()  # a worker that died booting fails _await_ready
        error = ProcessPoolError(
            f"worker {index} died (exitcode={exitcode}) with the "
            "batch in flight"
        )
        for future in futures:
            if not future.done():
                future.set_exception(error)

    def close(self) -> None:
        """Stop workers, fail pending futures, release every segment.

        Idempotent.  A worker exits on the stop message even when it is
        parked inside a patch window that will never close (degraded
        pool); one that does not within the timeout is killed.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._post_all(("stop",))
        for process in self._processes:
            try:
                process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._listener.is_alive():
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
        for channel in self._channels:
            channel.close()
        self._ctrl.close()
        self._frozen.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessReplicaPool(workers={self.workers}, "
            f"sync_seq={self._seq}, closed={self._closed})"
        )


def _worker_command(channel: int, ctrl: int) -> List[str]:
    """This interpreter, its flags and this package, running the worker."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    entry = (
        f"import sys; sys.path.insert(0, {root!r}); "
        "from repro.serving.process_pool import _worker_main; "
        f"_worker_main({channel}, {ctrl})"
    )
    flags = subprocess._args_from_interpreter_flags()  # type: ignore[attr-defined, unused-ignore]
    return [sys.executable, *flags, "-c", entry]


# ---------------------------------------------------------------------------
# The snapshot on the wire: a manifest, then its descriptors
# ---------------------------------------------------------------------------


def _descriptors(manifest: Dict[str, Any]) -> List[int]:
    """The descriptors a manifest names, in its ``segments`` order."""
    return [fd for fd, _typecode in manifest["segments"].values()]


def _send_fds(channel: Connection, fds: Sequence[int]) -> None:
    """Pass descriptors over a channel (after the message naming them)."""
    sock = socket.socket(fileno=channel.fileno())
    try:
        for start in range(0, len(fds), _FDS_PER_SEND):
            socket.send_fds(sock, [b"F"], fds[start : start + _FDS_PER_SEND])
    finally:
        sock.detach()


def _receive_fds(channel: Connection, manifest: Dict[str, Any]) -> None:
    """Replace the sender's descriptors in ``manifest`` with this
    process's copies, read off the channel right after the manifest."""
    segments = manifest["segments"]
    fds: List[int] = []
    sock = socket.socket(fileno=channel.fileno())
    try:
        while len(fds) < len(segments):
            data, received, _flags, _address = socket.recv_fds(
                sock, 1, _FDS_PER_SEND
            )
            if not data:
                raise EOFError("channel closed inside a snapshot transfer")
            fds.extend(received)
    finally:
        sock.detach()
    manifest["segments"] = {
        key: (fd, typecode)
        for (key, (_theirs, typecode)), fd in zip(segments.items(), fds)
    }


def _close_fds(manifest: Dict[str, Any]) -> None:
    for fd in _descriptors(manifest):
        os.close(fd)


# ---------------------------------------------------------------------------
# Worker process body
# ---------------------------------------------------------------------------

#: A worker recomputes its path-cache byte estimates (a walk over every
#: cached row) once per this many batches; counts go with every batch.
_DEEP_PATH_STATS_EVERY = 256


class _Stop(Exception):
    """The primary sent ``"stop"`` or closed the channel: exit now."""


class _Worker:
    """One worker's serving state: its channel, snapshot, and inbox."""

    __slots__ = (
        "channel", "frozen", "applied_seq", "tasks", "syncs",
        "retries", "batches", "path_bytes",
    )

    def __init__(self, channel: Connection) -> None:
        self.channel = channel
        self.frozen: Optional[FrozenRoad] = None
        self.applied_seq = -1
        #: Batches and sync payloads read off the channel, in order, not
        #: yet served / applied.
        self.tasks: Deque[Tuple[Any, ...]] = deque()
        self.syncs: List[Tuple[Any, ...]] = []
        self.retries = 0
        self.batches = 0
        self.path_bytes = (0, 0)

    def receive(self) -> None:
        """Read one message off the channel into the task or sync inbox."""
        try:
            message = self.channel.recv()
        except EOFError:
            raise _Stop from None
        if message[0] == "stop":
            raise _Stop
        if message[0] == "batch":
            self.tasks.append(message)
            return
        if message[0] == "reload":
            _receive_fds(self.channel, message[2])
        self.syncs.append(message)

    def path_stats(self) -> Tuple[int, ...]:
        """:meth:`FrozenRoad.path_stats` after one batch, in
        :data:`PATH_STATS` order (a tuple keeps the result message small)."""
        assert self.frozen is not None
        if self.batches % _DEEP_PATH_STATS_EVERY == 0:
            stats = self.frozen.path_stats(deep=True)
            self.path_bytes = (stats[PATH_STATS[2]], stats[PATH_STATS[3]])
        else:
            stats = self.frozen.path_stats()
        self.batches += 1
        return (stats[PATH_STATS[0]], stats[PATH_STATS[1]], *self.path_bytes)

    def close(self) -> None:
        """Release the snapshot and the channel (the process is exiting:
        descriptors of an unapplied reload go with it)."""
        if self.frozen is not None:
            self.frozen.close()
        self.channel.close()


def _worker_main(channel_fd: int, ctrl_fd: int) -> None:
    """Worker-process entry point: attach, handshake, serve batches.

    Runs in a fresh interpreter holding two inherited descriptors: its
    channel to the primary and the control segment.  The first message
    is the snapshot (sequence 0).  The worker owns no segment — its
    mappings and descriptors are its own, released on exit.  It ignores
    SIGINT: a terminal's Ctrl-C reaches the whole process group, and the
    primary decides when its workers stop.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ctrl = ShmVector.attach(ctrl_fd, "q")
    os.close(ctrl_fd)
    worker = _Worker(Connection(channel_fd))
    try:
        _catch_up(worker, ctrl)  # the snapshot, published as sequence 0
        worker.channel.send(("ready",))
        while True:
            while not worker.tasks:
                worker.receive()
            _tag, ticket, queries, directory, footprints = worker.tasks.popleft()
            worker.retries = 0
            try:
                ok, payload = True, _serve_batch(
                    worker, ctrl, queries, directory, footprints
                )
            except _Stop:
                raise
            except Exception as exc:  # noqa: BLE001 — fan the error out
                ok, payload = False, (type(exc).__name__, str(exc))
            worker.channel.send(
                ("done", ticket, ok, payload, worker.retries, worker.path_stats())
            )
    except (_Stop, ConnectionError):
        pass  # stopped, or the primary is gone
    finally:
        worker.close()
        ctrl.close()


def _serve_batch(
    worker: _Worker,
    ctrl: ShmVector,
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
        _catch_up(worker, ctrl)
        assert worker.frozen is not None  # booted: the snapshot is sync 0
        generation = int(ctrl[0])
        try:
            answers = execute_batch(worker.frozen, queries, directory, footprints)
        except Exception:
            # A patch window overlapping the read can surface as an
            # exception (offsets mid-splice); only a quiescent failure
            # is a real error.
            if int(ctrl[0]) == generation and generation % 2 == 0:
                raise
            worker.retries += 1
            continue
        # The even check matters even though _catch_up only returns on
        # even generations: the primary can open a patch window between
        # _catch_up returning and the sample above, and a window that
        # outlasts the whole batch leaves both control words looking
        # unchanged around a torn read.
        if (
            generation % 2 == 0
            and int(ctrl[0]) == generation
            and worker.applied_seq >= int(ctrl[1])
        ):
            return answers
        worker.retries += 1


def _catch_up(worker: _Worker, ctrl: ShmVector) -> None:
    """Wait out any patch window and apply every published sync payload.

    While a window is open the worker keeps reading its channel, so a
    large payload the primary is sending never stalls against a full
    socket buffer, and a ``"stop"`` — all a degraded pool's window that
    never closes can end with — reaches it.  The primary sends the
    payload *before* bumping ``sync_seq``, so whenever ``applied_seq``
    trails the published sequence the payload is already on its way
    down the channel — the blocking read cannot starve.

    A ``"reload"`` replaces the whole snapshot, so every payload before
    it is skipped (a skipped reload's descriptors are closed unused).
    """
    while True:
        if int(ctrl[0]) % 2:
            if worker.channel.poll(_PATCH_WAIT_S):
                worker.receive()
            continue
        published = int(ctrl[1])
        if worker.applied_seq >= published:
            return
        while not worker.syncs or worker.syncs[-1][1] < published:
            worker.receive()
        count = sum(1 for payload in worker.syncs if payload[1] <= published)
        pending, worker.syncs = worker.syncs[:count], worker.syncs[count:]
        start = max(
            (i for i, payload in enumerate(pending) if payload[0] == "reload"),
            default=0,
        )
        for payload in pending[:start]:
            if payload[0] == "reload":
                _close_fds(payload[2])
        for payload in pending[start:]:
            _apply_sync(worker, payload)


def _apply_sync(worker: _Worker, payload: Tuple[Any, ...]) -> None:
    """Apply one published sync payload to this worker's snapshot."""
    kind, seq = payload[0], payload[1]
    if kind == "reload":
        try:
            replacement = FrozenRoad.from_manifest(payload[2])
        finally:
            _close_fds(payload[2])
        if worker.frozen is not None:
            worker.frozen.close()
        worker.frozen = replacement
    elif kind == "objects":
        assert worker.frozen is not None
        worker.frozen.sync_directories(payload[2])
    else:  # "arrays"
        assert worker.frozen is not None
        worker.frozen.refresh_views()
    worker.applied_seq = seq
