"""Benchmark harness configuration.

Every module regenerates one table/figure of the paper's evaluation
(Section 6).  Rendered tables are printed and saved under
``benchmarks/results/`` so runs leave comparable artifacts.

Sizing: the default (mini) scale finishes the whole suite in minutes;
``REPRO_SCALE=paper`` switches to full-size networks, and ``REPRO_QUERIES``
overrides the per-configuration query count (paper: 100).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the rendered experiment tables are written to."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def publish(result, results_dir: Path) -> None:
    """Print and persist one experiment's rendered table + JSON artifact."""
    text = result.render()
    print("\n" + text)
    result.save(results_dir)
    result.save_json(results_dir)

