"""Launch the benchmark's server: the fixture behind ``repro.serving.http``.

Run by the harness as a subprocess (its own session, so the whole
process tree can be signalled as one group)::

    python benchmarks/road_bench/serve.py --port 18080 --config '{"replicas": 2}'

Builds the fixture, wraps ``RoadService.build(...)`` in ``RoadServiceApp``,
serves it on the built-in HTTP/1.1 loop and prints ``READY <seconds>``
(seconds since this process began running) once the socket listens.
SIGTERM/SIGINT, or end-of-file on a stdin that is a pipe, stop the loop
and close the service, which stops replica workers and unlinks their
shared-memory segments; the resource tracker is stopped last, so the
leader is the last of its tree to exit.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import asyncio
import json
import os
import signal
import stat
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)
if _PACKAGE_PARENT not in sys.path:
    sys.path.insert(0, _PACKAGE_PARENT)

from road_bench import fixture


async def _serve(app: Any, host: str, port: int) -> None:
    from repro.serving.http import serve

    ready = asyncio.Event()
    server = asyncio.ensure_future(serve(app, host, port, ready=ready))
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, server.cancel)
    # The harness holds the other end of a stdin pipe and never writes:
    # end-of-file means the harness is gone, even killed, and a server
    # nobody is left to stop must stop itself.
    stdin = sys.stdin.fileno()
    if stat.S_ISFIFO(os.fstat(stdin).st_mode):

        def parent_gone() -> None:
            if not os.read(stdin, 4096):
                loop.remove_reader(stdin)
                server.cancel()

        loop.add_reader(stdin, parent_gone)
    listening = asyncio.ensure_future(ready.wait())
    await asyncio.wait({server, listening}, return_when=asyncio.FIRST_COMPLETED)
    if server.done():
        listening.cancel()
        server.result()  # a failed bind surfaces here, before any READY
        return
    print(f"READY {time.perf_counter() - _STARTED:.6f}", flush=True)
    try:
        await server
    except asyncio.CancelledError:
        pass


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    Shared memory starts one.  Left alone it ends only after this
    process has, as an orphan nobody waits for; with the workers that
    shared its pipe gone, closing this end stops it now.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--nodes", type=int, default=fixture.FULL_NODES)
    parser.add_argument(
        "--config", default="{}", help="workload ServiceConfig fields, as JSON"
    )
    args = parser.parse_args(argv)
    fixture.bootstrap_source()
    from repro.serving.http import RoadServiceApp

    service = fixture.build_service(
        fixture.build_dataset(args.nodes), **json.loads(args.config)
    )
    try:
        asyncio.run(_serve(RoadServiceApp(service), args.host, args.port))
    finally:
        service.close()
        _stop_resource_tracker()
    return 0


# The process replica pool spawns workers that re-import the main
# module; without this guard a worker would start a server of its own
# and die in bootstrap.
if __name__ == "__main__":
    raise SystemExit(main())
