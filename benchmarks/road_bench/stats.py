"""Order statistics the benchmark reports: exact, no interpolation."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(max(rank, 0), len(ordered) - 1)]


def windowed_percentile(
    samples: Iterable[Tuple[float, float]],
    fraction: float,
    *,
    start: float,
    window_s: float = 1.0,
) -> Tuple[float, int]:
    """Median over fixed windows of each window's nearest-rank percentile.

    ``samples`` are ``(time, value)`` pairs; a sample belongs to window
    ``floor((time - start) / window_s)``.  One stalled window moves a
    whole-run tail percentile but not a median over windows.  Returns the
    statistic and the number of windows it rests on.
    """
    windows: Dict[int, List[float]] = {}
    for at, value in samples:
        windows.setdefault(int((at - start) // window_s), []).append(value)
    if not windows:
        raise ValueError("windowed percentile of an empty sample")
    tails = [percentile(values, fraction) for values in windows.values()]
    return statistics.median(tails), len(tails)


def spans_per_window(
    spans: Iterable[Tuple[float, float, float]], edges: Sequence[float]
) -> List[float]:
    """Share out each span's weight over the windows it overlaps.

    ``spans`` are ``(start, end, weight)``; ``edges`` are the ascending
    window boundaries.  A span that crosses a boundary gives each window
    the share of its weight that its time there is of its whole time, so
    a window's total does not jump with where a long request happens to
    end.  Returns one total per window (``len(edges) - 1`` of them).
    """
    totals = [0.0] * (len(edges) - 1)
    for start, end, weight in spans:
        if end <= start:
            continue
        for at in range(len(totals)):
            overlap = min(end, edges[at + 1]) - max(start, edges[at])
            if overlap > 0:
                totals[at] += weight * overlap / (end - start)
    return totals


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of one metric's runs.

    Quartiles are ``statistics.quantiles(values, n=4)``, the rule the
    acceptance driver applies; fewer than two runs have no spread.
    """
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    relative = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": relative}
