"""The load generator: one asyncio process, keep-alive HTTP/1.1 connections.

Requests are pre-encoded bytes; every response's status line and full
body are read, and the body is kept only for the requests the caller
wants to verify.  Three loops:

* :func:`closed_loop` — each connection sends its next request when the
  previous answer has arrived (callers that wait for a reply);
* :func:`open_loop` — requests are written at ``t0 + i / rate`` whether
  or not earlier ones have been answered (pipelined on the connection),
  and each latency runs from the *due* time, so a server stall is
  charged to every request it delays;
* :func:`paced_loop` — request ``j`` is due when the ``j``-th due time
  arrives on a queue (another loop's progress sets the pace); one is in
  flight at a time, and latency again runs from the due time.

A non-200 status, a timeout, a short read or a refused connection is a
failed request; it stays in the sample with the time it took to fail.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

#: A request that has not been answered after this long has failed.
TIMEOUT_S = 5.0


def encode_request(path: str, body: bytes) -> bytes:
    """One ``POST`` with a JSON body, ready to write to a socket."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: road-bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Sample:
    """One finished request."""

    index: int  #: position in the request stream
    start: float  #: send time (closed loop) or due time (open loop)
    latency_ms: float
    status: int  #: HTTP status, 0 when no complete response arrived
    body: Optional[bytes] = None  #: kept only when the caller asked

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class OpenLoopResult:
    samples: List[Sample] = field(default_factory=list)
    #: How late each request was written, relative to its due time.
    late_ms: List[float] = field(default_factory=list)
    #: Requests still unanswered when the last one was written.
    backlog: int = 0


class RequestFailed(Exception):
    """No complete response: timeout, short read or lost connection."""


class Connection:
    """One keep-alive connection; responses are read in request order."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.close()
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise RequestFailed(f"connect failed: {exc}") from exc

    def close(self) -> None:
        if self._writer is not None:
            self._writer.transport.abort()
        self._reader = self._writer = None

    def send(self, request: bytes) -> None:
        if self._writer is None or self._writer.transport.is_closing():
            raise RequestFailed("connection is closed")
        self._writer.write(request)

    async def receive(self, deadline: float) -> Tuple[int, bytes]:
        """Read one response; abort the connection at ``deadline``."""
        reader, writer = self._reader, self._writer
        if reader is None or writer is None:
            raise RequestFailed("connection is closed")
        loop = asyncio.get_running_loop()
        watchdog = loop.call_later(
            max(0.0, deadline - time.perf_counter()), writer.transport.abort
        )
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head[9:12])
            lowered = head.lower()
            at = lowered.find(b"content-length:")
            if at < 0:
                raise RequestFailed("response carries no content-length")
            length = int(lowered[at + 15 : lowered.index(b"\r\n", at)])
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, OSError) as exc:
            raise RequestFailed(f"{type(exc).__name__}: {exc}") from exc
        except ValueError as exc:
            raise RequestFailed(f"malformed response head: {exc}") from exc
        finally:
            watchdog.cancel()
        return status, body

    async def roundtrip(self, request: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self.open()
        self.send(request)
        return await self.receive(time.perf_counter() + TIMEOUT_S)


async def closed_loop(
    connections: Sequence[Connection],
    requests: Sequence[bytes],
    *,
    indices: Iterator[int],
    seconds: float = math.inf,
    keep: Callable[[int], bool] = lambda index: False,
) -> List[Sample]:
    """Send ``requests[i % len(requests)]`` for each ``i`` the connections
    draw from the shared ``indices``, until it runs out or ``seconds`` pass.

    A request started before the deadline runs to completion.
    """
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds

    async def client(connection: Connection) -> None:
        while True:
            start = time.perf_counter()
            index = next(indices, None) if start < deadline else None
            if index is None:
                return
            try:
                status, body = await connection.roundtrip(
                    requests[index % len(requests)]
                )
            except RequestFailed:
                status, body = 0, b""
                connection.close()
            latency = (time.perf_counter() - start) * 1000.0
            samples.append(
                Sample(index, start, latency, status, body if keep(index) else None)
            )
            if not status:
                await asyncio.sleep(0.01)  # a dead server must not spin this loop

    await asyncio.gather(*(client(connection) for connection in connections))
    return samples


async def open_loop(
    connections: Sequence[Connection],
    requests: Sequence[bytes],
    *,
    rate: float,
    count: int,
    first_index: int = 0,
    keep: Callable[[int], bool] = lambda index: False,
) -> OpenLoopResult:
    """Write request ``j`` at ``t0 + j / rate``, round-robin over connections."""
    result = OpenLoopResult()
    queues: List["asyncio.Queue[Optional[Tuple[int, float]]]"] = [
        asyncio.Queue() for _ in connections
    ]
    for connection in connections:
        try:
            await connection.open()
        except RequestFailed:
            pass  # every request on this connection will be recorded as failed
    answered = 0

    async def reader(connection: Connection, queue: "asyncio.Queue") -> None:
        nonlocal answered
        broken = False
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            status, body = 0, b""
            if not broken:
                try:
                    status, body = await connection.receive(due + TIMEOUT_S)
                except RequestFailed:
                    # Later pipelined requests on this connection are lost
                    # with it; they fail as they come off the queue.
                    broken = True
                    connection.close()
            latency = (time.perf_counter() - due) * 1000.0
            answered += 1
            result.samples.append(
                Sample(index, due, latency, status, body if keep(index) else None)
            )

    readers = [
        asyncio.ensure_future(reader(connection, queue))
        for connection, queue in zip(connections, queues)
    ]
    t0 = time.perf_counter() + 0.01
    for j in range(count):
        due = t0 + j / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_ms.append((time.perf_counter() - due) * 1000.0)
        lane = j % len(connections)
        index = first_index + j
        try:
            connections[lane].send(requests[index % len(requests)])
        except RequestFailed:
            pass  # the reader records the failure when it dequeues this
        queues[lane].put_nowait((index, due))
    result.backlog = count - answered
    for queue in queues:
        queue.put_nowait(None)
    await asyncio.gather(*readers)
    result.samples.sort(key=lambda sample: sample.index)
    return result


async def paced_loop(
    connection: Connection,
    requests: Sequence[bytes],
    due_times: "asyncio.Queue[Optional[float]]",
) -> OpenLoopResult:
    """Send ``requests[j]`` when the ``j``-th due time comes off the queue,
    one at a time, until ``None`` comes off it.

    A request whose predecessor is still unanswered waits its turn; the
    wait is part of its latency.  The caller, who knows when the pace-setter
    finished, fills in ``backlog``.
    """
    result = OpenLoopResult()
    index = 0
    while True:
        due = await due_times.get()
        if due is None:
            return result
        result.late_ms.append((time.perf_counter() - due) * 1000.0)
        try:
            status, _ = await connection.roundtrip(requests[index % len(requests)])
        except RequestFailed:
            status = 0
            connection.close()
        latency = (time.perf_counter() - due) * 1000.0
        result.samples.append(Sample(index, due, latency, status))
        index += 1
