"""The HTTP serving edge: a stdlib-only ASGI app over one RoadService.

The serving stack ends here: :class:`RoadServiceApp` is an ASGI-3
application (any ASGI server can host it; ``python -m repro.serving.http``
runs it on the built-in :func:`serve` loop) exposing four routes:

=================  ======  ====================================================
``/query``         POST    one query (``{"query": {...}}``) or a batch
                           (``{"queries": [...]}``), decoded by
                           :mod:`repro.serving.wire` and awaited through
                           ``RoadService.submit`` — the admission path, so
                           coalescing and replica sharding work unchanged
``/maintenance``   POST    one write (``{"op": ..., "u": 3, "v": 4}``):
                           ``op`` names a
                           :data:`~repro.queries.writes.WRITE_TYPES` kind,
                           the other keys are its fields, decoded by
                           :mod:`repro.serving.wire` like a query (an
                           unknown key is a 400) and applied by
                           ``RoadService.write``, hence patched into every
                           serving snapshot
``/metrics``       GET     the service's :class:`MetricsRegistry` in the
                           Prometheus text exposition format
``/healthz``       GET     liveness from ``replica_pool_stats()``: 200
                           ``ok``/``degraded`` while serving, 503 once the
                           pool is degraded (torn patch), dead, or closed
=================  ======  ====================================================

Everything rides the *existing* service surface: queries enter the async
admission buckets, writes flow through ``RoadService.write``'s fan-out,
and the metrics/health endpoints only read ``service.metrics`` /
``replica_pool_stats()``.  The app holds no state of its own beyond
route handles, so one service may sit behind several app instances (or
one app behind several server workers).

Errors are typed, not leaked: malformed payloads
(:class:`~repro.serving.wire.WireError`) and invalid maintenance
arguments (a non-positive or non-finite distance, a self-loop, a missing
edge) answer 400, unknown directories and node ids 404, unsupported
queries 400,
a closed/misconfigured service 503, a write to an executor that holds
no ROAD 501.  Anything else is a 500 with the exception type named —
the edge answers, it does not crash.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.association_directory import DirectoryError
from repro.core.dispatch import (
    RoadOwner,
    UnknownDirectoryError,
    UnsupportedQueryError,
)
from repro.core.maintenance import MaintenanceError
from repro.graph.network import NetworkError
from repro.objects.model import ObjectError
from repro.serving.config import REPLICA_MODES, ServiceConfig
from repro.serving.service import RoadService, ServiceError
from repro.serving.wire import (
    WireError,
    _require_mapping,
    decode_query,
    decode_write,
    encode_result,
)

__all__ = ["MAX_BODY_BYTES", "RoadServiceApp", "main", "serve"]

#: ASGI-3 callables (the subset this app and server exchange).
Receive = Callable[[], Awaitable[Dict[str, Any]]]
Send = Callable[[Dict[str, Any]], Awaitable[None]]
Scope = Mapping[str, Any]

#: One finished response: status, content type, payload.
_Reply = Tuple[int, str, bytes]
_Handler = Callable[[bytes], Awaitable[_Reply]]

#: Reject request bodies beyond this size (a query batch this large
#: should be a bench harness talking to the service in process).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    """An error with a known status code (raised by handlers)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_reply(status: int, payload: object) -> _Reply:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return status, "application/json", body


async def _read_body(receive: Receive) -> bytes:
    chunks: List[bytes] = []
    total = 0
    while True:
        message = await receive()
        kind = message.get("type")
        if kind == "http.disconnect":
            raise _HttpError(400, "client disconnected mid-request")
        if kind != "http.request":
            continue
        chunk = bytes(message.get("body", b""))
        total += len(chunk)
        if total > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        chunks.append(chunk)
        if not message.get("more_body"):
            return b"".join(chunks)


def _parse_json(body: bytes) -> object:
    try:
        return json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"request body is not valid JSON: {exc}") from exc


class RoadServiceApp:
    """The ASGI application serving one :class:`RoadService`."""

    def __init__(self, service: RoadService) -> None:
        self.service = service
        self.metrics = service.metrics
        self._routes: Dict[str, Tuple[str, _Handler]] = {
            "/query": ("POST", self._query),
            "/maintenance": ("POST", self._maintenance),
            "/metrics": ("GET", self._metrics),
            "/healthz": ("GET", self._healthz),
        }

    # -- ASGI entry ----------------------------------------------------
    async def __call__(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(
                f"RoadServiceApp only speaks http/lifespan scopes, "
                f"got {scope['type']!r}"
            )
        path = str(scope.get("path", "/"))
        method = str(scope.get("method", "GET")).upper()
        route = self._routes.get(path)
        # Unmatched paths share one label — a scanner walking random
        # URLs must not mint unbounded metric children.
        label = path if route is not None else "unmatched"
        self.metrics.counter(
            "road_http_requests_total",
            "HTTP requests by route.",
            labels={"path": label},
        ).inc()
        start = time.perf_counter()
        reply = await self._respond(route, method, path, receive)
        status, content_type, payload = reply
        self.metrics.histogram(
            "road_http_request_ms",
            "HTTP request wall time by route, in milliseconds.",
            labels={"path": label},
        ).observe((time.perf_counter() - start) * 1000.0)
        self.metrics.counter(
            "road_http_responses_total",
            "HTTP responses by status code.",
            labels={"code": str(status)},
        ).inc()
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", content_type.encode("latin-1")),
                    (b"content-length", str(len(payload)).encode("latin-1")),
                ],
            }
        )
        await send({"type": "http.response.body", "body": payload})

    async def _respond(
        self,
        route: Optional[Tuple[str, _Handler]],
        method: str,
        path: str,
        receive: Receive,
    ) -> _Reply:
        try:
            if route is None:
                return _json_reply(404, {"error": f"no route for {path}"})
            expected, handler = route
            if method != expected:
                return _json_reply(405, {"error": f"{path} only accepts {expected}"})
            return await handler(await _read_body(receive))
        except _HttpError as exc:
            return _json_reply(exc.status, {"error": str(exc)})
        except UnknownDirectoryError as exc:
            return _json_reply(404, {"error": str(exc)})
        except (
            UnsupportedQueryError,
            ObjectError,
            DirectoryError,
            ValueError,
            MaintenanceError,
            NetworkError,
        ) as exc:
            # WireError is a ValueError; engine-side validation (bad
            # radius, bad aggregate, negative offsets, an unknown object
            # id, an object on a missing edge or beyond its length, a
            # refused edge write) lands here.
            return _json_reply(400, {"error": str(exc)})
        except KeyError as exc:
            # Unknown query nodes surface as UnknownNodeError (a
            # KeyError) from admission: the thing addressed does not
            # exist.
            return _json_reply(404, {"error": str(exc)})
        except ServiceError as exc:
            return _json_reply(503, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — the edge answers, never crashes
            return _json_reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- routes --------------------------------------------------------
    async def _query(self, body: bytes) -> _Reply:
        payload = _require_mapping(_parse_json(body), "request body")
        directory = payload.get("directory")
        if directory is not None and not isinstance(directory, str):
            raise WireError(f"field 'directory' must be a string, got {directory!r}")
        single = "query" in payload
        batch = "queries" in payload
        if single == batch:
            raise WireError(
                "provide exactly one of 'query' (single) or 'queries' (batch)"
            )
        if single:
            query = decode_query(payload["query"])
            result = await self.service.submit(query, directory=directory)
            return _json_reply(
                200, {"result": encode_result(result), "count": len(result)}
            )
        raw = payload["queries"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise WireError("field 'queries' must be a list of query objects")
        queries = [decode_query(item) for item in raw]
        # One gather = concurrent admission: the service batches and
        # coalesces these exactly as it would any other submitters.
        results = await asyncio.gather(
            *(self.service.submit(q, directory=directory) for q in queries)
        )
        return _json_reply(
            200, {"results": [encode_result(entries) for entries in results]}
        )

    async def _maintenance(self, body: bytes) -> _Reply:
        write = decode_write(_parse_json(body))
        owner = self.service.executor
        if not isinstance(owner, RoadOwner):
            raise _HttpError(
                501,
                f"{type(owner).__name__} does not support maintenance "
                f"(it holds no ROAD)",
            )
        # Runs on the loop thread: a patch is a few array writes plus the
        # fan-out, and serialising it against admission flushes is
        # exactly the consistency the sync write API provides.
        report = self.service.write(write)
        return _json_reply(
            200,
            {
                "op": report.kind,
                "ok": True,
                "kind": report.kind,
                "structural": report.structural,
            },
        )

    async def _metrics(self, body: bytes) -> _Reply:
        return 200, _PROMETHEUS_TYPE, self.metrics.render().encode("utf-8")

    async def _healthz(self, body: bytes) -> _Reply:
        pool = self.service.replica_pool_stats()
        workers = int(_as_float(pool.get("workers")))
        alive = int(_as_float(pool.get("alive")))
        degraded = bool(pool.get("degraded"))
        closed = bool(pool.get("closed"))
        if closed or degraded or (workers and not alive):
            status, verdict = 503, "unhealthy"
        elif workers and alive < workers:
            # PR 7's containment contract: dead workers shrink the pool
            # but the survivors keep serving — degraded, not down.
            status, verdict = 200, "degraded"
        else:
            status, verdict = 200, "ok"
        return _json_reply(
            status,
            {
                "status": verdict,
                "replica_mode": self.service.config.replica_mode,
                "workers": workers,
                "alive": alive,
                "degraded": degraded,
                "closed": closed,
            },
        )


def _as_float(value: object) -> float:
    return float(value) if isinstance(value, (int, float)) else 0.0


# ---------------------------------------------------------------------------
# The built-in HTTP/1.1 server (python -m repro.serving.http)
# ---------------------------------------------------------------------------
async def serve(
    app: RoadServiceApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Host the app on a minimal asyncio HTTP/1.1 server, forever.

    Supports keep-alive requests with ``Content-Length`` bodies — the
    subset the wire protocol and the load harness use.  A connection is
    served strictly serially: the next request is read only after the
    previous response is written, so requests a client pipelines wait
    their turn in the socket buffer; concurrency comes from connections.
    ``ready`` (if given) is set once the listening socket is bound.
    """

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(app, reader, writer)

    server = await asyncio.start_server(handle, host, port)
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()


async def _handle_connection(
    app: RoadServiceApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            request = await _read_request(reader, writer)
            if request is None:
                return
            scope, body, keep_alive = request
            await _serve_one(app, writer, scope, body)
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.IncompleteReadError):
        return  # client went away; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _serve_one(
    app: RoadServiceApp,
    writer: asyncio.StreamWriter,
    scope: Dict[str, Any],
    body: bytes,
) -> None:
    """Run one request through the ASGI interface onto the socket."""
    messages = [{"type": "http.request", "body": body, "more_body": False}]

    async def receive() -> Dict[str, Any]:
        if messages:
            return messages.pop(0)
        return {"type": "http.disconnect"}

    async def send(message: Dict[str, Any]) -> None:
        _write_message(writer, message)

    await app(scope, receive, send)


async def _read_request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> Optional[Tuple[Dict[str, Any], bytes, bool]]:
    """Parse one request; None at a clean end of stream."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise
    except asyncio.LimitOverrunError:
        _write_error(writer, 400, "request head too large")
        return None
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        _write_error(writer, 400, f"malformed request line {request_line!r}")
        return None
    method, target, version = parts
    headers: List[Tuple[bytes, bytes]] = []
    content_length: Optional[int] = None
    keep_alive = version == "HTTP/1.1"
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        name = name.strip().lower()
        value = value.strip()
        headers.append((name.encode("latin-1"), value.encode("latin-1")))
        if name == "content-length":
            # ASCII digits only (int() also takes "+5" and "1_000"), and
            # a repeat must agree: two lengths are two framings.
            length = int(value) if value.isascii() and value.isdigit() else -1
            if length < 0 or content_length not in (None, length):
                _write_error(writer, 400, f"bad content-length {value!r}")
                return None
            content_length = length
        elif name == "connection":
            keep_alive = value.lower() != "close"
        elif name == "transfer-encoding":
            _write_error(writer, 501, "chunked bodies are not supported")
            return None
    if content_length is not None and content_length > MAX_BODY_BYTES:
        _write_error(writer, 413, "request body too large")
        return None
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    path, _, query_string = target.partition("?")
    scope: Dict[str, Any] = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": version.removeprefix("HTTP/"),
        "method": method.upper(),
        "scheme": "http",
        "path": path,
        "raw_path": target.encode("latin-1"),
        "query_string": query_string.encode("latin-1"),
        "headers": headers,
    }
    return scope, body, keep_alive


def _write_message(
    writer: asyncio.StreamWriter, message: Dict[str, Any]
) -> None:
    kind = message["type"]
    if kind == "http.response.start":
        status = int(message["status"])
        reason = _REASONS.get(status, "")
        lines = [f"HTTP/1.1 {status} {reason}".encode("latin-1")]
        lines.extend(
            bytes(name) + b": " + bytes(value)
            for name, value in message.get("headers", [])
        )
        writer.write(b"\r\n".join(lines) + b"\r\n\r\n")
    elif kind == "http.response.body":
        writer.write(bytes(message.get("body", b"")))


def _write_error(
    writer: asyncio.StreamWriter, status: int, message: str
) -> None:
    _, _, payload = _json_reply(status, {"error": message})
    _write_message(
        writer,
        {
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(payload)).encode("latin-1")),
                (b"connection", b"close"),
            ],
        },
    )
    _write_message(writer, {"type": "http.response.body", "body": payload})


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.http",
        description=(
            "Serve a demo grid network over HTTP "
            "(REPRO_* env vars configure the engine; flags beat them)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--grid", type=int, default=24, help="grid side length (nodes = N*N)"
    )
    parser.add_argument("--objects", type=int, default=96)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument("--replica-mode", choices=REPLICA_MODES, default=None)
    return parser


def _build_service(args: argparse.Namespace) -> RoadService:
    from repro.graph.generators import grid_network
    from repro.objects.placement import place_uniform

    network = grid_network(args.grid, args.grid, seed=args.seed)
    objects = place_uniform(
        network,
        args.objects,
        seed=args.seed,
        attr_choices={"type": ["restaurant", "hotel", "fuel"]},
    )
    overrides: Dict[str, Any] = {}
    for field in ("replicas", "replica_mode"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    config = ServiceConfig.from_env(**overrides)
    return RoadService.build(network, objects, config=config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    service = _build_service(args)
    app = RoadServiceApp(service)
    print(
        f"road-serving: {service.config.replicas} "
        f"{service.config.replica_mode} replicas "
        f"on http://{args.host}:{args.port} (Ctrl-C stops)"
    )
    try:
        asyncio.run(serve(app, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
