"""The four workloads: server config, request stream, what gets verified.

A stream is generated from ``--seed`` alone (the fixture's own seeds are
constants); the server receives nothing but the generated requests.
Queries are kept in their wire form — the dict that is JSON-encoded into
the request — and turned into query objects with ``decode_query`` only
where the harness needs to run them itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List, Sequence

from road_bench import fixture
from road_bench.loadgen import encode_request

Wire = Dict[str, Any]

#: Share of ``--seconds`` spent warming up before the timed phases.
#: zipf_cached_churn warms up by count instead (``Stream.warmup_posts``).
WARMUP_SHARE = 0.1

#: interactive_dense splits ``--seconds`` between its two timed phases.
CLOSED_SHARE = 0.6
#: The open phase's fixed arrival rate, about 43 % of what the closed
#: phase sustained on the seed commit.  A constant, never recalibrated.
OPEN_RATE = 250.0
INTERACTIVE_POOL = 8192

BULK_BATCH = 64

#: One analysis POST: OD 2x2 + aggregate kNN over 2 points + 12 service
#: areas + 18 route-kNNs — about 40 / 24 / 27 / 25 ms of kernel time on
#: the seed commit, so every kind holds 20-35 % and a POST costs ~115 ms.
OD_SOURCES = 2
OD_TARGETS = 2
AGGREGATE_POINTS = 2
SERVICE_AREAS_PER_POST = 12
ROUTE_KNNS_PER_POST = 18
ROUTE_LENGTH = 12
SERVICE_AREA_BREAKS = (0.02, 0.05, 0.1)

ZIPF_POOL = 4096
ZIPF_EXPONENT = 1.1
ZIPF_BATCH = 16
#: One maintenance write falls due at every this-many-th read POST: about
#: ten a second at the seed commit's ~60 POSTs/s.  Paced by the reads, not
#: by the clock: against a clock, a slower second means more invalidation
#: per read, hence more misses, hence a slower second still — the loop
#: turned a 15 % neighbour stall into 3x swings between identical runs.
POSTS_PER_WRITE = 6
HOT_NODES = 32
RESERVED_INSERT_EDGES = 64
REPLAY_QUERIES = 512

#: How many queries of each stream are checked against the reference.
VERIFY_QUERIES = 256


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``ServiceConfig`` fields off their defaults.
    config: Dict[str, Any]
    directory: str
    #: Upper bound on POSTs per second, used only to size the stream.
    max_posts_per_s: float
    #: Share of ``--seconds`` the closed phase gets (the rest is open).
    closed_share: float = 1.0
    #: Whether a 1-s window of the closed phase holds enough requests
    #: (dozens, not a dozen) for its p95 to mean something.
    windowed_tail: bool = False
    #: Requests replayed by a full ``--trace`` ladder.
    trace_requests: int = 200


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="interactive_dense",
            config={},
            directory=fixture.POI_DIRECTORY,
            max_posts_per_s=1500.0,
            closed_share=CLOSED_SHARE,
            windowed_tail=True,
            trace_requests=2000,
        ),
        Workload(
            name="bulk_sparse",
            config={"replicas": 2, "replica_mode": "thread"},
            directory=fixture.DEFAULT_DIRECTORY,
            max_posts_per_s=60.0,
            trace_requests=200,
        ),
        Workload(
            name="analysis_process",
            config={"replicas": 1, "replica_mode": "process"},
            directory=fixture.DEFAULT_DIRECTORY,
            max_posts_per_s=30.0,
            trace_requests=60,
        ),
        Workload(
            name="zipf_cached_churn",
            config={"replicas": 2, "replica_mode": "thread", "result_cache": True},
            directory=fixture.DEFAULT_DIRECTORY,
            max_posts_per_s=400.0,
            windowed_tail=True,
            trace_requests=500,
        ),
    )
}


@dataclass
class Stream:
    """One workload's generated inputs."""

    workload: Workload
    #: Per request, the queries it carries (wire form).
    posts: List[List[Wire]]
    #: Per request, the bytes written to the socket.
    requests: List[bytes]
    #: Request positions (modulo ``len(posts)``) checked against the reference.
    verify: frozenset = frozenset()
    #: Leading requests that are the warm-up, sent once each whatever time
    #: they take; 0 means a warm-up of ``WARMUP_SHARE`` of the run.
    warmup_posts: int = 0
    #: zipf_cached_churn only: the distinct queries, hottest first.
    pool: List[Wire] = field(default_factory=list)
    #: zipf_cached_churn only: maintenance payloads and their request bytes.
    maintenance: List[Wire] = field(default_factory=list)
    maintenance_requests: List[bytes] = field(default_factory=list)


def _knn(node: int, k: int) -> Wire:
    return {"type": "knn", "node": node, "k": k}


def _range(node: int, radius: float) -> Wire:
    return {"type": "range", "node": node, "radius": radius}


def _service_area(node: int, diameter: float) -> Wire:
    return {
        "type": "service_area",
        "node": node,
        "breaks": [share * diameter for share in SERVICE_AREA_BREAKS],
    }


def _random_walk(network: Any, rng: random.Random, nodes: int) -> List[int]:
    current = rng.randrange(nodes)
    path, previous = [current], None
    for _ in range(ROUTE_LENGTH - 1):
        neighbours = sorted(v for v, _ in network.neighbours(current))
        onward = [v for v in neighbours if v != previous] or neighbours
        previous, current = current, rng.choice(onward)
        path.append(current)
    return path


def encode_post(queries: Sequence[Wire], directory: str) -> bytes:
    """The ``POST /query`` request for one query (single form) or a batch."""
    if len(queries) == 1:
        payload: Wire = {"query": queries[0], "directory": directory}
    else:
        payload = {"queries": list(queries), "directory": directory}
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return encode_request("/query", body)


def _finish(workload: Workload, posts: List[List[Wire]], verify: Sequence[int], **extra: Any) -> Stream:
    return Stream(
        workload=workload,
        posts=posts,
        requests=[encode_post(post, workload.directory) for post in posts],
        verify=frozenset(verify),
        **extra,
    )


def _post_count(workload: Workload, seconds: float) -> int:
    timed = seconds * (1.0 + WARMUP_SHARE)
    return max(8, math.ceil(workload.max_posts_per_s * timed))


def _interactive(workload: Workload, dataset: Any, rng: random.Random, seconds: float) -> Stream:
    nodes = dataset.network.num_nodes
    radius = dataset.radius(0.02)
    posts: List[List[Wire]] = []
    for node in rng.sample(range(nodes), min(INTERACTIVE_POOL, nodes)):
        draw = rng.random()
        if draw < 0.4:
            posts.append([_knn(node, 1)])
        elif draw < 0.8:
            posts.append([_knn(node, 5)])
        else:
            posts.append([_range(node, radius)])
    step = max(1, len(posts) // VERIFY_QUERIES)
    return _finish(workload, posts, range(0, len(posts), step))


def _bulk(workload: Workload, dataset: Any, rng: random.Random, seconds: float) -> Stream:
    nodes = dataset.network.num_nodes
    radius = dataset.radius(0.05)
    posts = []
    for _ in range(_post_count(workload, seconds)):
        post = []
        for node in rng.sample(range(nodes), BULK_BATCH):
            draw = rng.random()
            if draw < 0.6:
                post.append(_knn(node, 5))
            elif draw < 0.7:
                post.append(_knn(node, 10))
            else:
                post.append(_range(node, radius))
        posts.append(post)
    # Early in the stream, so that even a short run reaches them.
    verified = VERIFY_QUERIES // BULK_BATCH
    return _finish(workload, posts, range(2, 2 + 4 * verified, 4))


def _analysis(workload: Workload, dataset: Any, rng: random.Random, seconds: float) -> Stream:
    network = dataset.network
    nodes = network.num_nodes
    posts = []
    for _ in range(_post_count(workload, seconds)):
        post: List[Wire] = [
            {
                "type": "od_matrix",
                "sources": rng.sample(range(nodes), OD_SOURCES),
                "targets": rng.sample(range(nodes), OD_TARGETS),
            },
            {
                "type": "aggregate_knn",
                "nodes": rng.sample(range(nodes), AGGREGATE_POINTS),
                "k": 5,
                "agg": "sum",
            },
        ]
        post.extend(
            _service_area(rng.randrange(nodes), dataset.diameter)
            for _ in range(SERVICE_AREAS_PER_POST)
        )
        post.extend(
            {"type": "route_knn", "path": _random_walk(network, rng, nodes), "k": 5}
            for _ in range(ROUTE_KNNS_PER_POST)
        )
        rng.shuffle(post)
        posts.append(post)
    verified = max(1, VERIFY_QUERIES // len(posts[0]))
    return _finish(workload, posts, range(1, 1 + 2 * verified, 2))


def _zipf(workload: Workload, dataset: Any, rng: random.Random, seconds: float) -> Stream:
    network = dataset.network
    nodes = network.num_nodes
    radius = dataset.radius(0.05)
    pool: List[Wire] = []
    for node in rng.sample(range(nodes), min(ZIPF_POOL, nodes)):
        draw = rng.random()
        if draw < 0.7:
            pool.append(_knn(node, 5))
        elif draw < 0.9:
            pool.append(_range(node, radius))
        else:
            pool.append(_service_area(node, dataset.diameter))
    weights = list(
        accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool)))
    )
    ranks = range(len(pool))
    # Warm-up: the hottest queries the cache can hold, coldest first, so
    # that the timed phase starts on a full cache in its steady state
    # (the tail evicts from its first miss) whatever the run's length.
    budget = fixture.service_config(**workload.config).cache_budget
    fill = pool[: min(budget, len(pool))][::-1]
    posts = [fill[at : at + ZIPF_BATCH] for at in range(0, len(fill), ZIPF_BATCH)]
    warmup_posts = len(posts)
    posts += [
        [pool[rank] for rank in rng.choices(ranks, cum_weights=weights, k=ZIPF_BATCH)]
        for _ in range(_post_count(workload, seconds))
    ]
    # Enough that the writer never wraps round: a wrapped stream would
    # insert an object that is already there.
    maintenance = _maintenance_ops(
        network,
        rng,
        pool,
        count=math.ceil(_post_count(workload, seconds) / POSTS_PER_WRITE) + 1,
    )
    return _finish(
        workload,
        posts,
        (),
        warmup_posts=warmup_posts,
        pool=pool,
        maintenance=maintenance,
        maintenance_requests=[
            encode_request(
                "/maintenance",
                json.dumps(op, separators=(",", ":")).encode("utf-8"),
            )
            for op in maintenance
        ],
    )


def _maintenance_ops(
    network: Any, rng: random.Random, pool: Sequence[Wire], *, count: int
) -> List[Wire]:
    """Edge reweighs (70 %) and object insert->delete pairs (30 %).

    Half the reweighs land on edges incident to the hottest query nodes,
    so they dirty cached answers that are actually in use.  New distances
    are factors of the pristine ones, so the stream does not compound.
    Inserts use reserved edges no reweigh touches, which keeps every
    generated offset inside its edge.  No ``add_edge``/``remove_edge``.
    """
    edges = sorted((u, v, d) for u, v, d in network.edges())
    reserved = rng.sample(edges, RESERVED_INSERT_EDGES)
    reserved_keys = {(u, v) for u, v, _ in reserved}
    free = [edge for edge in edges if (edge[0], edge[1]) not in reserved_keys]
    hot_nodes = {query["node"] for query in pool[:HOT_NODES]}
    hot = [edge for edge in free if edge[0] in hot_nodes or edge[1] in hot_nodes]
    ops: List[Wire] = []
    live: List[int] = []
    next_id = 1_000_000
    for _ in range(count):
        draw = rng.random()
        if draw < 0.7:
            u, v, base = rng.choice(hot if draw < 0.35 else free)
            ops.append(
                {
                    "op": "update_edge_distance",
                    "u": u,
                    "v": v,
                    "distance": base * rng.uniform(0.5, 2.0),
                }
            )
        elif draw < 0.85 or not live:
            u, v, base = rng.choice(reserved)
            ops.append(
                {
                    "op": "insert_object",
                    "object": {
                        "object_id": next_id,
                        "edge": [u, v],
                        "delta": rng.uniform(0.0, base),
                        "attrs": {"type": rng.choice(fixture.OBJECT_ATTRS["type"])},
                    },
                }
            )
            live.append(next_id)
            next_id += 1
        else:
            ops.append({"op": "delete_object", "object_id": live.pop(0)})
    return ops


_GENERATORS = {
    "interactive_dense": _interactive,
    "bulk_sparse": _bulk,
    "analysis_process": _analysis,
    "zipf_cached_churn": _zipf,
}


def generate(workload: Workload, dataset: Any, seed: int, seconds: float) -> Stream:
    """The workload's stream for one seed (same seed, same stream)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return _GENERATORS[workload.name](workload, dataset, rng, seconds)


def apply_maintenance(target: Any, op: Wire) -> Any:
    """Apply one generated maintenance op to a ``RoadService`` or a ``ROAD``
    (both spell the three operations alike); returns what the call returns,
    which for a ``ROAD`` is the ``MaintenanceReport``."""
    from repro.objects.model import SpatialObject

    kind = op["op"]
    if kind == "update_edge_distance":
        return target.update_edge_distance(op["u"], op["v"], op["distance"])
    if kind == "insert_object":
        body = op["object"]
        return target.insert_object(
            SpatialObject(
                body["object_id"],
                (body["edge"][0], body["edge"][1]),
                body["delta"],
                dict(body["attrs"]),
            )
        )
    if kind == "delete_object":
        return target.delete_object(op["object_id"])
    raise ValueError(f"unknown maintenance op {kind!r}")


def replay_ranks(pool_size: int) -> List[int]:
    """Pool ranks replayed after the churn: the hot half, then an even
    sample of the tail — a stale cached answer is most likely hot."""
    hot = min(REPLAY_QUERIES // 2, pool_size)
    tail = range(hot, pool_size)
    step = max(1, len(tail) // (REPLAY_QUERIES - hot))
    return list(range(hot)) + list(tail[::step])[: REPLAY_QUERIES - hot]
