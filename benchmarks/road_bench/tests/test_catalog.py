import re

from road_bench import catalog, workloads
from road_bench.ladder import PER_LAYER_UNITS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_metric_name_and_unit_is_well_formed():
    names = [metric.name for metric in catalog.END_TO_END]
    names += list(PER_LAYER_UNITS) + list(catalog.DIAGNOSTICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [m.unit for m in catalog.END_TO_END] + list(PER_LAYER_UNITS.values()):
        assert UNIT.fullmatch(unit), unit


def test_ten_end_to_end_metrics_each_with_a_bound():
    assert len(catalog.END_TO_END) == 10
    for metric in catalog.END_TO_END:
        assert metric.better in ("lower", "higher")
        assert 0.0 <= metric.bound <= 0.25
        assert set(metric.workloads) <= set(workloads.WORKLOADS)


def test_benchmark_json_agrees_with_the_catalog():
    declared = catalog.benchmark_json()
    assert declared is not None
    assert set(declared) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["benchmarks/road_bench"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for entry in declared["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    # The driver wants every listed metric from every workload, never 0:
    # exactly the catalog's metrics that all four workloads report.
    universal = [
        metric
        for metric in catalog.END_TO_END
        if metric.workloads == catalog.ALL and metric.name != "error_share"
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in universal
    ]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    assert all(m["better"] in ("lower", "higher") for m in declared["per_layer"])
    assert 1 <= declared["run_seconds"] <= 60
