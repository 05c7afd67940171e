"""road_bench: the full-CA, real-socket benchmark.  One command::

    python benchmarks/road_bench/run.py [--workload W] [--seed N] [--seconds S]
                                        [--repeat N] [--trace] [--smoke]
    python benchmarks/road_bench/run.py compare BASE.json NEW.json

Runs the workloads against a server subprocess, checks the answers, and
prints one line per metric (``workload metric value unit``), a result
file under ``results/``, and — when one workload was selected — a last
line of JSON ``{"correct", "attempted", "failed", "metrics"}`` holding
the metrics the root ``BENCHMARK.json`` declares: the end-to-end ones,
or with ``--trace`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)
if _PACKAGE_PARENT not in sys.path:
    sys.path.insert(0, _PACKAGE_PARENT)

from road_bench import fixture

RESULTS_DIR = fixture.BENCH_DIR / "results"
#: ``--smoke``: mini network and short phases — proves the plumbing, and
#: is marked so that ``compare`` refuses to treat it as a measurement.
SMOKE_SECONDS = 2.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(fixture.REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "load_average_1min": os.getloadavg()[0],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="query/maintenance streams")
    parser.add_argument(
        "--seconds",
        type=float,
        help="timed seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced run (per-layer metrics) instead of the untraced one",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny, marked, not comparable")
    parser.add_argument("--out", type=Path, help="result file (default: results/run_*.json)")
    return parser


def _print_metrics(workload: str, metrics: Dict[str, Any]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from road_bench import compare

        return compare.main(argv[1:])
    args = _parser().parse_args(argv)
    # Terminated from outside (a driver's time limit): unwind, so that
    # the ``finally`` blocks stop the server and its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    fixture.bootstrap_source()
    from road_bench import catalog, harness, ladder, workloads

    declared = catalog.benchmark_json()
    if declared is None:
        raise SystemExit("road_bench: BENCHMARK.json not found at the repository root")
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}"
        )
    selected = [args.workload] if args.workload else list(workloads.WORKLOADS)
    nodes = fixture.SMOKE_NODES if args.smoke else fixture.FULL_NODES
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(declared["run_seconds"])

    payload: Dict[str, Any] = {
        "benchmark": "road_bench",
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": seconds,
        "fixture": fixture.describe(nodes),
        "environment": environment(),
        "runs": [],
        "claim": None,
    }
    results: List[Any] = []
    for name in selected:
        workload = workloads.WORKLOADS[name]
        for _ in range(max(1, args.repeat)):
            if args.trace:
                result = ladder.run_traced(
                    workload,
                    seed=args.seed,
                    seconds=seconds,
                    nodes=nodes,
                    results_dir=RESULTS_DIR,
                )
            else:
                result = harness.run_workload(
                    workload,
                    seed=args.seed,
                    seconds=seconds,
                    nodes=nodes,
                    # A smoke run proves the plumbing; one start-up will do.
                    setups=1 if args.smoke else harness.SETUPS,
                )
            results.append(result)
            _print_metrics(name, result.metrics)
            for reason in result.invalid:
                print(f"{name} INVALID {reason}")
            payload["runs"].append(
                {
                    "workload": name,
                    "traced": bool(args.trace),
                    "correct": result.correct,
                    "attempted": result.attempted,
                    "failed": result.failed,
                    "invalid": result.invalid,
                    "metrics": {
                        metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in result.metrics.items()
                    },
                    "info": result.info,
                }
            )
    out = args.out
    if out is None:
        stamp = time.strftime("%Y%m%dT%H%M%S")
        out = RESULTS_DIR / f"run_{stamp}_{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"results {out}")

    correct = all(result.correct for result in results)
    if len(selected) > 1:
        print(json.dumps({"workloads": len(selected), "correct": correct, "claim": None}))
        return 0
    # One workload: the line the acceptance driver reads.  Several runs
    # (--repeat) report each metric's median.
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        values = [result.metrics[entry["name"]][0] for result in results]
        metrics[entry["name"]] = {
            "value": statistics.median(values),
            "unit": entry["unit"],
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(result.attempted for result in results),
                "failed": sum(result.failed for result in results),
                "metrics": metrics,
            }
        )
    )
    return 0


# The traced analysis_process run starts a process replica pool, whose
# spawned workers re-import this module.
if __name__ == "__main__":
    from road_bench import procs

    # From here on this is the supervisor's child: the command itself ends
    # only after every process the benchmark started has ended.
    procs.supervise()
    raise SystemExit(main())
