"""``run.py compare A.json B.json``: is B worse than A, beyond the bounds?

Per workload and end-to-end metric: each side's median, quartiles and
relative spread over its runs, the relative change of the median, and a
verdict.  A change larger than the metric's bound is ``worse`` (and the
exit status is 1) or ``better``; where either side's run-to-run spread
exceeds the bound the medians cannot carry that call, so the verdict is
``unresolved`` unless every run of one side beats every run of the other.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from road_bench import catalog
from road_bench.stats import spread

Runs = Dict[Tuple[str, str], List[float]]


def load_runs(path: Path) -> Runs:
    """(workload, metric) -> values, one per untraced run in the file."""
    payload = json.loads(path.read_text())
    if payload.get("smoke"):
        raise SystemExit(
            f"{path}: a --smoke result (small network, 2 s phases) is not "
            f"a measurement; compare refuses it"
        )
    runs: Runs = {}
    for run in payload["runs"]:
        if run["traced"]:
            continue
        for name, entry in run["metrics"].items():
            if name in catalog.BY_NAME:
                runs.setdefault((run["workload"], name), []).append(entry["value"])
    return runs


def verdict(metric: catalog.EndToEnd, base: Sequence[float], new: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, worsening)``; worsening is the median's relative change
    signed so that positive is worse."""
    sign = 1.0 if metric.better == "lower" else -1.0
    a, b = spread(base), spread(new)
    if a["median"]:
        worsening = sign * (b["median"] - a["median"]) / abs(a["median"])
    else:
        worsening = sign * (b["median"] - a["median"])
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(a["spread"], b["spread"]) > metric.bound > 0:
        if all_worse and worsening > metric.bound:
            return "worse", worsening
        if all_better:
            return "better", worsening
        return "unresolved", worsening
    if worsening > metric.bound:
        return "worse", worsening
    if worsening < -metric.bound:
        return "better", worsening
    return "unchanged", worsening


def compare(base_path: Path, new_path: Path) -> int:
    base, new = load_runs(base_path), load_runs(new_path)
    header = (
        f"{'workload':<20}{'metric':<18}{'base median [q1, q3] spread':>40}"
        f"{'new median [q1, q3] spread':>40}{'change':>9}  verdict"
    )
    print(header)
    worse = 0
    for workload in catalog.ALL:
        for metric in catalog.END_TO_END:
            key = (workload, metric.name)
            if key not in base or key not in new:
                continue
            outcome, worsening = verdict(metric, base[key], new[key])
            worse += outcome == "worse"
            cells = []
            for values in (base[key], new[key]):
                s = spread(values)
                cells.append(
                    f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                    f"{s['spread'] * 100:.1f}%"
                )
            print(
                f"{workload:<20}{metric.name:<18}{cells[0]:>40}{cells[1]:>40}"
                f"{worsening * 100:>+8.1f}%  {outcome}"
            )
    print(f"{worse} metric(s) worse than their bound")
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))
