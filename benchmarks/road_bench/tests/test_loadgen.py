"""The load generator and the failure accounting, against stub servers."""

import asyncio
import json
import time

from road_bench.harness import Checker
from road_bench.loadgen import (
    Connection,
    closed_loop,
    encode_request,
    open_loop,
    paced_loop,
)

OK_BODY = json.dumps(
    {"result": [{"object_id": 7, "distance": 1.5}], "count": 1}
).encode()


class Stub:
    """A keep-alive HTTP/1.1 server answering every POST in order."""

    def __init__(self, *, status=200, body=OK_BODY, stall_on=None, stall_s=0.0):
        self.status, self.body = status, body
        self.stall_on, self.stall_s = stall_on, stall_s
        self.seen = 0

    async def __aenter__(self):
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split()[0])
                await reader.readexactly(length)
                if self.seen == self.stall_on:
                    await asyncio.sleep(self.stall_s)
                self.seen += 1
                writer.write(
                    b"HTTP/1.1 %d X\r\ncontent-length: %d\r\n\r\n%s"
                    % (self.status, len(self.body), self.body)
                )
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


REQUEST = encode_request("/query", b'{"query":{"type":"knn","node":1,"k":1}}')
POSTS = [[{"type": "knn", "node": 1, "k": 1}]]


def test_open_loop_measures_from_the_due_time():
    """A 200 ms stall on one request is charged to the requests queued
    behind it, each answered instantly once the server wakes."""

    async def scenario():
        async with Stub(stall_on=5, stall_s=0.2) as stub:
            return await open_loop(
                [Connection("127.0.0.1", stub.port)], [REQUEST], rate=100.0, count=30
            )

    result = asyncio.run(scenario())
    latency = [sample.latency_ms for sample in result.samples]
    assert len(latency) == 30 and all(sample.ok for sample in result.samples)
    assert max(latency[:5]) < 100.0
    assert latency[5] >= 200.0
    # Request 10 was due 50 ms into the stall: it waited about 150 ms,
    # though the server spent no time on it.
    assert 100.0 < latency[10] < latency[5]
    assert latency[29] < 100.0  # the queue has drained
    assert len(result.late_ms) == 30 and max(result.late_ms) < 50.0
    assert result.backlog <= 1


def test_paced_loop_sends_one_at_a_time_and_measures_from_the_due_time():
    """Three writes fall due together while the first one stalls 100 ms:
    the others wait their turn, and the wait is in their latency."""
    import time

    async def scenario():
        async with Stub(stall_on=0, stall_s=0.1) as stub:
            due_times = asyncio.Queue()
            now = time.perf_counter()
            for _ in range(3):
                due_times.put_nowait(now)
            due_times.put_nowait(None)
            return await paced_loop(
                Connection("127.0.0.1", stub.port), [REQUEST], due_times
            )

    result = asyncio.run(scenario())
    assert [sample.index for sample in result.samples] == [0, 1, 2]
    assert all(sample.ok for sample in result.samples)
    assert all(sample.latency_ms >= 100.0 for sample in result.samples)
    assert result.late_ms[0] < 50.0 <= result.late_ms[1] <= result.late_ms[2]


def test_closed_loop_stops_at_the_deadline_and_reads_every_body():
    async def scenario():
        async with Stub() as stub:
            connections = [Connection("127.0.0.1", stub.port) for _ in range(2)]
            began = time.perf_counter()
            samples = await closed_loop(
                connections,
                [REQUEST],
                indices=iter(range(10**9)),
                seconds=0.3,
                keep=lambda index: index % 2 == 0,
            )
            return samples, time.perf_counter() - began, stub.seen

    samples, wall, seen = asyncio.run(scenario())
    assert 0.3 <= wall < 1.0
    assert len(samples) == seen > 10
    assert sorted(sample.index for sample in samples) == list(range(len(samples)))
    for sample in samples:
        assert (sample.body == OK_BODY) if sample.index % 2 == 0 else sample.body is None


def test_a_500_is_a_failed_operation_that_stays_in_the_latency_sample():
    async def scenario():
        async with Stub(status=500, body=b'{"error":"boom"}') as stub:
            return await closed_loop(
                [Connection("127.0.0.1", stub.port)],
                [REQUEST],
                indices=iter(range(20)),
                keep=lambda index: True,
            )

    samples = asyncio.run(scenario())
    assert len(samples) == 20  # none dropped
    assert all(sample.status == 500 and sample.latency_ms > 0 for sample in samples)
    checker = Checker()
    good = checker.queries(samples, POSTS, {0: [[]]})
    assert (good, checker.attempted, checker.failed) == ([0] * 20, 20, 20)


def test_a_wrong_reference_is_counted_as_a_failure():
    from repro.queries.types import ResultEntry

    async def scenario():
        async with Stub() as stub:
            return await closed_loop(
                [Connection("127.0.0.1", stub.port)],
                [REQUEST],
                indices=iter(range(8)),
                keep=lambda index: index < 4,
            )

    samples = asyncio.run(scenario())
    right, wrong = Checker(), Checker()
    assert right.queries(samples, POSTS, {0: [[ResultEntry(7, 1.5)]]}) == [1] * 8
    assert right.failed == 0
    # Only the four kept bodies can be compared; each one mismatches.
    good = wrong.queries(samples, POSTS, {0: [[ResultEntry(7, 2.5)]]})
    assert [count for sample, count in zip(samples, good) if sample.index < 4] == [0] * 4
    assert (sum(good), wrong.attempted, wrong.failed) == (4, 8, 4)


def test_a_dead_server_fails_every_request_without_hanging():
    async def scenario():
        async with Stub() as stub:
            port = stub.port
        return await closed_loop(
            [Connection("127.0.0.1", port)], [REQUEST], indices=iter(range(3))
        )

    samples = asyncio.run(scenario())
    assert [sample.status for sample in samples] == [0, 0, 0]
    checker = Checker()
    checker.operations(samples)
    assert (checker.attempted, checker.failed) == (3, 3)
