"""Declared query kinds without numpy: the wire codec and the dispatch.

Both read every query kind off its dataclass in ``repro.queries.types``
and are stdlib-only code, so this module builds no network (the
generators need numpy) and runs in the no-numpy CI leg: the executor is
a tiny hand-made :class:`QueryExecutor`.
"""

import json

import pytest

from repro.queries.types import (
    ANY,
    QUERY_TYPES,
    AggregateKNNQuery,
    KNNQuery,
    Predicate,
    RangeQuery,
    ResultEntry,
)
from repro.core.dispatch import QueryExecutor, UnsupportedQueryError
from repro.serving.wire import WireError, decode_query, encode_query
from tests.oracle import QUERY_SAMPLES


class Recorder(QueryExecutor):
    """Answers kNN and range by recording each call; also owns a
    ``close`` that no query may reach."""

    def __init__(self):
        self.calls = []
        self.closed = False

    def knn(self, node, k, predicate, *, directory, stats):
        self.calls.append(("knn", node, k, predicate, directory, stats))
        return [ResultEntry(node, float(k))]

    def range(self, node, radius, predicate, *, directory, stats):
        self.calls.append(("range", node, radius, predicate, directory, stats))
        return [ResultEntry(node, radius)]

    def close(self):
        self.closed = True


class Impostor:
    """Not a query class, but its ``kind`` names a Recorder method."""

    kind = "close"


class CloseQuery(KNNQuery):
    """A query subclass whose ``kind`` names a non-query method."""

    kind = "close"


@pytest.mark.parametrize("query_type", QUERY_TYPES, ids=lambda t: t.__name__)
def test_wire_round_trip(query_type):
    query = QUERY_SAMPLES[query_type]
    payload = json.loads(json.dumps(encode_query(query)))
    assert payload["type"] == query_type.kind
    assert decode_query(payload) == query


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "knn", "node": 0, "k": 5, "predicat": {"type": "a"}},
        {"type": "range", "node": 0, "radius": 1.0, "k": 3},
        {"type": "od_matrix", "sources": [0], "targets": [1],
         "predicate": {"type": "a"}},
    ],
)
def test_unknown_fields_are_refused(payload):
    with pytest.raises(WireError, match=f"{payload['type']} query has no field"):
        decode_query(payload)


def test_absent_fields_take_their_default_or_are_refused():
    assert decode_query({"type": "aggregate_knn", "nodes": [1], "k": 2}) == (
        AggregateKNNQuery((1,), 2, "sum", ANY)
    )
    with pytest.raises(WireError, match="knn query needs field 'k'"):
        decode_query({"type": "knn", "node": 0})


def test_execute_calls_the_method_the_kind_names():
    executor = Recorder()
    stats = object()
    predicate = Predicate.of(type="a")
    assert executor.execute(KNNQuery(3, 2, predicate), stats=stats) == [
        ResultEntry(3, 2.0)
    ]
    assert executor.execute_many([RangeQuery(4, 1.5)]) == [[ResultEntry(4, 1.5)]]
    assert executor.calls == [
        ("knn", 3, 2, predicate, "objects", stats),
        ("range", 4, 1.5, ANY, "objects", None),
    ]


def test_a_declared_kind_without_its_method_is_refused():
    executor = Recorder()
    query = AggregateKNNQuery((0, 1), 2)
    assert not executor.supports(query)
    with pytest.raises(
        UnsupportedQueryError,
        match="Recorder does not serve query type AggregateKNNQuery",
    ):
        executor.execute(query)


@pytest.mark.parametrize(
    "query", [Impostor(), CloseQuery(0, 1), "knn"], ids=["impostor", "subclass", "str"]
)
def test_refusal_is_by_exact_type(query):
    executor = Recorder()
    assert not executor.supports(query)
    with pytest.raises(UnsupportedQueryError):
        executor.execute(query)
    with pytest.raises(UnsupportedQueryError):
        executor.execute_many([KNNQuery(0, 1), query])
    with pytest.raises(WireError, match="no wire form"):
        encode_query(query)
    assert not executor.closed
