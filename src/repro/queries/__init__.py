"""LDSQ query types, network workloads, and workload generators."""

from repro.queries.types import (
    AGGREGATE_FUNCTIONS,
    ANY,
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixEntry,
    ODMatrixQuery,
    Predicate,
    QUERY_TYPES,
    RangeQuery,
    ResultEntry,
    ResultRow,
    RouteKNNQuery,
    ServiceAreaEntry,
    ServiceAreaQuery,
    sort_result,
)
from repro.queries.workload import (
    knn_workload,
    mixed_workload,
    random_query_nodes,
    range_workload,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "ANY",
    "AggregateKNNQuery",
    "KNNQuery",
    "ODMatrixEntry",
    "ODMatrixQuery",
    "Predicate",
    "QUERY_TYPES",
    "RangeQuery",
    "ResultEntry",
    "ResultRow",
    "RouteKNNQuery",
    "ServiceAreaEntry",
    "ServiceAreaQuery",
    "knn_workload",
    "mixed_workload",
    "random_query_nodes",
    "range_workload",
    "sort_result",
]
