import json

import pytest

from road_bench.ladder import (
    PER_LAYER_UNITS,
    RUNGS,
    Tracer,
    fit_hit_miss,
    self_times,
)


def test_self_times_telescope_to_the_outer_rung():
    medians = {
        "socket": 3600.0,
        "asgi": 3300.0,
        "submit": 2650.0,
        "run_many": 170.0,
        "execute_many": 150.0,
    }
    leaves = {"asgi": 3.2 + 1.2 + 9.9}
    selfs = self_times(medians, leaves)
    assert set(selfs) == set(RUNGS)
    assert sum(selfs.values()) + sum(leaves.values()) == pytest.approx(
        medians["socket"]
    )
    assert selfs["execute_many"] == 150.0


def test_self_times_are_raw_differences_never_clamped():
    # A cached submit can be cheaper than the uncached sync path.
    medians = dict.fromkeys(RUNGS, 100.0)
    medians["submit"] = 40.0
    selfs = self_times(medians, {})
    assert selfs["submit"] == -60.0
    assert sum(selfs.values()) == pytest.approx(100.0)


def test_fit_hit_miss_recovers_the_two_costs():
    rows = [(5.0 * h + 400.0 * m, h, m) for h, m in [(16, 0), (12, 4), (9, 7), (3, 13)]]
    hit, miss = fit_hit_miss(rows)
    assert hit == pytest.approx(5.0)
    assert miss == pytest.approx(400.0)


def test_fit_hit_miss_declines_when_batches_are_all_alike():
    assert fit_hit_miss([(100.0, 8, 8), (50.0, 4, 4)]) == (0.0, 0.0)
    assert fit_hit_miss([]) == (0.0, 0.0)


def test_tracer_keeps_spans_and_writes_them(tmp_path):
    tracer = Tracer("w")
    tracer.add("socket", 0, 1.0, 1.004, None)
    tracer.add("asgi", 0, 2.0, 2.003, "socket")
    tracer.add("socket", 1, 3.0, 3.006, None)
    assert tracer.median_us("socket") == pytest.approx(5000.0)
    assert tracer.median_us("never") == 0.0
    assert tracer.paired_us("socket") == {
        0: pytest.approx(4000.0),
        1: pytest.approx(6000.0),
    }
    tracer.write(tmp_path / "trace_w.json")
    written = json.loads((tmp_path / "trace_w.json").read_text())
    assert written["fields"] == ["name", "workload", "request", "start", "end", "parent"]
    assert written["spans"][1] == ["asgi", "w", 0, 2.0, 2.003, "socket"]


def test_per_layer_metrics_are_named_after_modules():
    modules = {
        "eval.datasets",
        "core.framework",
        "core.frozen",
        "core.serialize",
        "core.multi_source",
        "core.aggregate",
        "core.maintenance",
        "serving.service",
        "serving.result_cache",
        "serving.process_pool",
        "serving.wire",
        "serving.http",
        "trace",
    }
    for name in PER_LAYER_UNITS:
        assert any(name.startswith(module + ".") for module in modules), name
