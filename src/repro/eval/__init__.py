"""Evaluation harness reproducing the paper's Section 6."""

from repro.eval.config import (
    DEFAULT_K,
    DEFAULT_OBJECTS,
    DEFAULT_RANGE_FRACTION,
    K_VALUES,
    OBJECT_COUNTS,
    PARTITION_FANOUT,
    RANGE_FRACTIONS,
    profile,
    profiles,
    queries_per_run,
    scale_profile,
)
from repro.eval.datasets import Dataset, dataset_levels, load_dataset
from repro.eval.metrics import (
    QueryMeasurement,
    WorkloadSummary,
    measure_query,
    run_workload,
    time_call,
)
from repro.eval.reporting import ExperimentResult, dominance
from repro.eval.runner import (
    ENGINE_ORDER,
    build_engine,
    build_engines,
    make_objects,
)

__all__ = [
    "DEFAULT_K",
    "DEFAULT_OBJECTS",
    "DEFAULT_RANGE_FRACTION",
    "Dataset",
    "ENGINE_ORDER",
    "ExperimentResult",
    "K_VALUES",
    "OBJECT_COUNTS",
    "PARTITION_FANOUT",
    "QueryMeasurement",
    "RANGE_FRACTIONS",
    "WorkloadSummary",
    "build_engine",
    "build_engines",
    "dataset_levels",
    "dominance",
    "load_dataset",
    "make_objects",
    "measure_query",
    "profile",
    "profiles",
    "queries_per_run",
    "run_workload",
    "scale_profile",
    "time_call",
]
