"""``run.py --smoke`` end to end: every declared metric, every workload."""

import json
import subprocess
import sys

from road_bench import catalog, fixture, procs, workloads
from road_bench.ladder import PER_LAYER_UNITS

RUN = [sys.executable, str(fixture.BENCH_DIR / "run.py")]


def _run(tmp_path, *extra):
    out = tmp_path / "result.json"
    shm_before = procs.shm_segments()
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out), *extra],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert procs.shm_segments() == shm_before
    printed = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in workloads.WORKLOADS:
            printed[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    return json.loads(out.read_text()), printed, done.stdout.splitlines()


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    payload, printed, _ = _run(tmp_path)
    assert payload["smoke"] is True and payload["claim"] is None
    assert payload["fixture"]["nodes"] == fixture.SMOKE_NODES
    for key in ("nproc", "cpu_model", "python", "git_commit", "load_average_1min"):
        assert key in payload["environment"]
    assert [run["workload"] for run in payload["runs"]] == list(workloads.WORKLOADS)
    for run in payload["runs"]:
        assert run["correct"], run
    for metric in catalog.END_TO_END:
        for name in workloads.WORKLOADS:
            present = (name, metric.name) in printed
            assert present == (name in metric.workloads), (name, metric.name)
            if present:
                assert printed[(name, metric.name)][1] == metric.unit
    assert all(printed[(name, "error_share")][0] == 0.0 for name in workloads.WORKLOADS)
    assert ("interactive_dense", "serving.http.late_p99_ms") in printed
    # compare refuses a smoke file.
    refused = subprocess.run(
        RUN + ["compare", str(tmp_path / "result.json"), str(tmp_path / "result.json")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert refused.returncode != 0 and "smoke" in refused.stderr


def test_smoke_trace_prints_every_per_layer_metric(tmp_path):
    payload, printed, _ = _run(tmp_path, "--trace")
    for run in payload["runs"]:
        assert run["traced"] and run["correct"], run
    for name in workloads.WORKLOADS:
        for metric, unit in PER_LAYER_UNITS.items():
            assert printed[(name, metric)][1] == unit, (name, metric)
        assert (fixture.BENCH_DIR / "results" / f"trace_{name}.json").is_file()
        assert printed[(name, "trace.vs_untraced_ratio")][0] > 0
    churn = "zipf_cached_churn"
    assert printed[(churn, "serving.result_cache.hit_ratio")][0] > 0
    assert printed[(churn, "serving.result_cache.invalidations")][0] > 0
    assert printed[(churn, "core.frozen.apply_us")][0] > 0
    assert printed[("interactive_dense", "serving.service.admit_wait_us")][0] > 1000
    assert printed[("analysis_process", "serving.process_pool.payload_bytes")][0] > 0


def test_one_workload_ends_with_the_driver_line(tmp_path):
    _, _, lines = _run(tmp_path, "--workload", "interactive_dense", "--seed", "3")
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = catalog.benchmark_json()
    assert list(last["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    for entry in last["metrics"].values():
        assert entry["value"] > 0


def test_unknown_workload_is_refused():
    done = subprocess.run(
        RUN + ["--workload", "nope"], capture_output=True, text=True, check=False
    )
    assert done.returncode != 0 and "unknown workload" in done.stderr
