"""FrozenRoad array backends: memory footprint vs batch-query throughput.

The compiled CSR snapshot has one logical layout and three physical
representations (:mod:`repro.core.frozen_backends`): pre-boxed Python
lists (``list``), stdlib typed buffers (``compact``), and the same
buffers in shared-memory segments (``shm``).  This bench freezes the
Table-1 default network once per installed backend and reports, per
backend:

* resident bytes of the compiled arrays (``FrozenRoad.memory_stats()``),
* batch throughput of ``execute_many`` on a mixed kNN/range workload,
* byte-identity against the ``list`` reference snapshot (the
  :func:`repro.eval.metrics.snapshot_divergences` probes).

Acceptance gates (full runs): the ``compact`` backend must hold resident
arrays at least :data:`MIN_MEMORY_RATIO` times smaller than ``list``
without exceeding :data:`MAX_LATENCY_RATIO` times its batch latency, and
every backend must serve with zero equivalence divergences.

A second scenario covers **multi-directory snapshots**: one
``road.freeze()`` over :data:`MULTI_DIRECTORIES` attached providers must
hold resident compiled arrays at least :data:`MIN_MULTI_MEMORY_SAVINGS`
times smaller than the N single-directory snapshots it replaces — the
entry arrays are compiled once and shared — while serving every
directory byte-identically to its dedicated snapshot
(:func:`repro.eval.metrics.snapshot_divergences` per directory), on
every installed backend.

Run standalone (``python benchmarks/bench_frozen_memory.py``) or via
pytest with the usual harness fixtures.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (installed, or PYTHONPATH/pytest-pythonpath)
except ModuleNotFoundError:  # standalone run from a clean checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.frozen_backends import installed_backends
from repro.eval.config import DEFAULT_K, DEFAULT_OBJECTS, DEFAULT_RANGE_FRACTION
from repro.eval.datasets import dataset_levels, load_dataset
from repro.eval.metrics import snapshot_divergences
from repro.eval.reporting import ExperimentResult, memory_note
from repro.eval.runner import build_engine, make_objects
from repro.queries.workload import mixed_workload

#: The acceptance bars for the compact backend (full runs).
MIN_MEMORY_RATIO = 4.0
#: Compact stores unboxed slots, so hot-loop reads box a fresh int/float
#: per access — measured at ~1.2-1.35x the list backend's batch latency
#: on the default network.  The bar allows that boxing tax (plus timer
#: noise) but forbids a structural slowdown.
MAX_LATENCY_RATIO = 1.4

#: execute_many repetitions per backend; the median absorbs timer noise.
BATCH_REPEATS = 5

#: The providers the multi-directory scenario attaches on one overlay.
MULTI_DIRECTORIES = ("objects", "hotels", "fuel")
#: One combined snapshot must hold its resident arrays at least this many
#: times smaller than the N single-directory snapshots it replaces.
MIN_MULTI_MEMORY_SAVINGS = 1.8


def run_memory_comparison(
    *,
    network: str = "CA",
    num_objects: int = DEFAULT_OBJECTS,
    k: int = DEFAULT_K,
    fraction: float = DEFAULT_RANGE_FRACTION,
    num_queries: int = 30,
    num_nodes=None,
    seed: int = 0,
    probes: int = 4,
):
    """Freeze one ROAD per installed backend and race the snapshots.

    Returns ``(result, summary)``: the rendered table data and a per-
    backend dict of ``{memory_ratio, latency_ratio, divergences,
    identical}`` relative to the ``list`` reference.  ``num_nodes``
    overrides the profile size (CI smoke runs use a tiny replica).
    """
    dataset = load_dataset(network, num_nodes)
    objects = make_objects(dataset.network, num_objects, seed=seed)
    engine = build_engine(
        "ROAD", dataset.network, objects,
        road_levels=dataset_levels(network), road_mode_override="charged",
    )
    road = engine.road
    radius = dataset.radius(fraction)
    batch = mixed_workload(
        dataset.network, num_queries, k=k, radius=radius, seed=seed
    )

    result = ExperimentResult(
        "frozen_memory",
        f"FrozenRoad array backends on {network} "
        f"(|O|={num_objects}, k={k}, {num_queries}-query mixed batch)",
        [
            "backend", "freeze_ms", "resident_kib", "memory_ratio",
            "batch_ms", "latency_ratio", "identical",
        ],
    )
    summary = {}
    reference = None
    reference_answers = None
    list_bytes = None
    list_batch_ms = None
    for name in installed_backends():
        start = time.perf_counter()
        frozen = road.freeze(backend=name)
        freeze_ms = (time.perf_counter() - start) * 1000.0
        stats = frozen.memory_stats()
        timings = []
        answers = None
        for _ in range(BATCH_REPEATS):
            start = time.perf_counter()
            answers = frozen.execute_many(batch)
            timings.append((time.perf_counter() - start) * 1000.0)
        batch_ms = statistics.median(timings)
        if name == "list":
            reference = frozen
            reference_answers = answers
            list_bytes = stats["total_bytes"]
            list_batch_ms = batch_ms
            divergences = []
        else:
            divergences = snapshot_divergences(
                random.Random(seed), frozen, reference, probes=probes, k=k
            )
        identical = answers == reference_answers
        memory_ratio = list_bytes / stats["total_bytes"]
        latency_ratio = batch_ms / list_batch_ms if list_batch_ms else 1.0
        summary[name] = {
            "memory_ratio": memory_ratio,
            "latency_ratio": latency_ratio,
            "divergences": len(divergences),
            "identical": identical,
        }
        result.add_row(
            backend=name,
            freeze_ms=freeze_ms,
            resident_kib=stats["total_bytes"] / 1024.0,
            memory_ratio=f"{memory_ratio:.2f}x",
            batch_ms=batch_ms,
            latency_ratio=f"{latency_ratio:.2f}x",
            identical=str(identical and not divergences),
        )
        result.note(memory_note(stats))
    result.note(
        f"gates (full runs): compact >= {MIN_MEMORY_RATIO:.0f}x smaller "
        f"resident arrays than list, <= {MAX_LATENCY_RATIO:.2f}x its batch "
        f"latency, zero equivalence divergences on every backend"
    )
    result.note(
        f"params: network={network} num_nodes={dataset.network.num_nodes} "
        f"objects={num_objects} k={k} queries={num_queries} "
        f"repeats={BATCH_REPEATS} seed={seed}"
    )
    return result, summary


def run_multi_directory_comparison(
    *,
    network: str = "CA",
    num_objects: int = DEFAULT_OBJECTS,
    k: int = DEFAULT_K,
    fraction: float = DEFAULT_RANGE_FRACTION,
    num_queries: int = 30,
    num_nodes=None,
    seed: int = 0,
    probes: int = 4,
):
    """One combined freeze vs N single-directory freezes, per backend.

    Attaches :data:`MULTI_DIRECTORIES` providers to one ROAD, freezes
    them into a single multi-directory snapshot, and races it — resident
    memory and per-directory byte-identity — against a dedicated
    single-directory snapshot per provider.  Returns ``(result,
    summary)`` with per-backend ``{savings, divergences, identical}``.
    """
    dataset = load_dataset(network, num_nodes)
    engine = build_engine(
        "ROAD",
        dataset.network,
        make_objects(dataset.network, num_objects, seed=seed),
        road_levels=dataset_levels(network),
        road_mode_override="charged",
    )
    road = engine.road
    for i, name in enumerate(MULTI_DIRECTORIES):
        if name == "objects":
            continue  # the engine already attached the default provider
        road.attach_objects(
            make_objects(dataset.network, num_objects, seed=seed + i),
            name=name,
        )
    radius = dataset.radius(fraction)
    batch = mixed_workload(
        dataset.network, num_queries, k=k, radius=radius, seed=seed
    )

    result = ExperimentResult(
        "frozen_memory_multi",
        f"one multi-directory FrozenRoad vs {len(MULTI_DIRECTORIES)} "
        f"single-directory snapshots on {network} "
        f"(|O|={num_objects}/directory, {num_queries}-query mixed batch)",
        [
            "backend", "freeze_ms", "combined_kib", "singles_kib",
            "savings", "batch_ms", "identical",
        ],
    )
    summary = {}
    for name in installed_backends():
        start = time.perf_counter()
        combined = road.freeze(backend=name)
        freeze_ms = (time.perf_counter() - start) * 1000.0
        combined_bytes = combined.memory_stats()["total_bytes"]
        singles = {
            directory: road.freeze(directory=directory, backend=name)
            for directory in MULTI_DIRECTORIES
        }
        singles_bytes = sum(
            s.memory_stats()["total_bytes"] for s in singles.values()
        )
        divergences = []
        identical = True
        for directory, single in singles.items():
            divergences.extend(
                snapshot_divergences(
                    random.Random(seed), combined, single,
                    probes=probes, k=k, directory=directory,
                )
            )
            combined_answers = combined.execute_many(batch, directory=directory)
            if combined_answers != single.execute_many(batch):
                identical = False
        timings = []
        for _ in range(BATCH_REPEATS):
            start = time.perf_counter()
            combined.execute_many(batch)
            timings.append((time.perf_counter() - start) * 1000.0)
        savings = singles_bytes / combined_bytes
        summary[name] = {
            "savings": savings,
            "divergences": len(divergences),
            "identical": identical,
        }
        result.add_row(
            backend=name,
            freeze_ms=freeze_ms,
            combined_kib=combined_bytes / 1024.0,
            singles_kib=singles_bytes / 1024.0,
            savings=f"{savings:.2f}x",
            batch_ms=statistics.median(timings),
            identical=str(identical and not divergences),
        )
        result.note(memory_note(combined.memory_stats()))
    result.note(
        f"gate: one snapshot over {len(MULTI_DIRECTORIES)} directories "
        f">= {MIN_MULTI_MEMORY_SAVINGS:.1f}x smaller resident arrays than "
        f"{len(MULTI_DIRECTORIES)} single-directory snapshots, "
        f"byte-identical per directory on every backend"
    )
    result.note(
        f"params: network={network} num_nodes={dataset.network.num_nodes} "
        f"objects={num_objects}/directory k={k} queries={num_queries} "
        f"seed={seed}"
    )
    return result, summary


def _assert_multi_gates(summary) -> None:
    """The multi-directory acceptance bars (pytest gate and main())."""
    for name, stats in summary.items():
        assert stats["identical"], (
            f"{name}: combined snapshot diverged from a single-directory "
            f"freeze on execute_many"
        )
        assert stats["divergences"] == 0, (
            f"{name}: {stats['divergences']} per-directory equivalence "
            f"divergences"
        )
        assert stats["savings"] >= MIN_MULTI_MEMORY_SAVINGS, (
            f"{name}: combined snapshot only {stats['savings']:.2f}x "
            f"smaller than {len(MULTI_DIRECTORIES)} single snapshots "
            f"(bar: {MIN_MULTI_MEMORY_SAVINGS:.1f}x)"
        )


def _assert_gates(summary, *, smoke: bool) -> None:
    """The acceptance bars shared by the pytest gate and main()."""
    for name, stats in summary.items():
        assert stats["identical"], f"{name}: answers diverged from list"
        assert stats["divergences"] == 0, (
            f"{name}: {stats['divergences']} equivalence divergences"
        )
    compact = summary["compact"]
    assert compact["memory_ratio"] >= MIN_MEMORY_RATIO, (
        f"compact resident arrays only {compact['memory_ratio']:.2f}x "
        f"smaller than list (bar: {MIN_MEMORY_RATIO:.0f}x)"
    )
    if not smoke:  # tiny-network latencies are timer noise
        assert compact["latency_ratio"] <= MAX_LATENCY_RATIO, (
            f"compact batch latency {compact['latency_ratio']:.2f}x list "
            f"(bar: {MAX_LATENCY_RATIO:.2f}x)"
        )


def test_frozen_memory_report(results_dir):
    """The acceptance gate: >=4x smaller compact arrays, no slow serving."""
    from conftest import publish

    result, summary = run_memory_comparison()
    _assert_gates(summary, smoke=False)
    publish(result, results_dir)


def test_frozen_memory_multi_directory_report(results_dir):
    """The multi-directory gate: one snapshot >=1.8x smaller than N."""
    from conftest import publish

    result, summary = run_multi_directory_comparison()
    _assert_multi_gates(summary)
    publish(result, results_dir)


def main() -> int:
    from conftest import publish_main

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    if smoke:
        result, summary = run_memory_comparison(num_nodes=300, num_queries=10)
        multi_result, multi_summary = run_multi_directory_comparison(
            num_nodes=300, num_queries=10
        )
    else:
        result, summary = run_memory_comparison()
        multi_result, multi_summary = run_multi_directory_comparison()
    smoke_note = (
        "smoke mode: 300-node replica, 10 queries — "
        "not comparable to full CA runs"
    )
    publish_main(result, smoke=smoke, smoke_note=smoke_note)
    publish_main(multi_result, smoke=smoke, smoke_note=smoke_note)
    try:
        _assert_gates(summary, smoke=smoke)
        _assert_multi_gates(multi_summary)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    compact = summary["compact"]
    print(
        f"compact: {compact['memory_ratio']:.2f}x smaller resident arrays "
        f"(bar: {MIN_MEMORY_RATIO:.0f}x), {compact['latency_ratio']:.2f}x "
        f"list batch latency (bar: {MAX_LATENCY_RATIO:.2f}x, full runs)"
    )
    worst = min(multi_summary.values(), key=lambda s: s["savings"])
    print(
        f"multi-directory: one snapshot over {len(MULTI_DIRECTORIES)} "
        f"directories holds >= {worst['savings']:.2f}x less resident "
        f"memory than {len(MULTI_DIRECTORIES)} single snapshots "
        f"(bar: {MIN_MULTI_MEMORY_SAVINGS:.1f}x), byte-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
