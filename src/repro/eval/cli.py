"""Command-line experiment runner.

Regenerate any of the paper's tables/figures without pytest::

    python -m repro.eval fig17a
    python -m repro.eval fig17a --engine frozen
    python -m repro.eval fig19 --queries 10
    python -m repro.eval all --out results/
    python -m repro.eval list

The ROAD switch (``--engine``) sets the ``REPRO_ENGINE`` environment
override, which :func:`repro.eval.runner.build_engine` reads — the
environment is the CLI's channel into the experiment functions.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict

from repro.baselines.road_adapter import MODE_ENV, ROAD_MODES
from repro.eval import ablations, experiments
from repro.eval.reporting import ExperimentResult

#: Experiment name -> zero-argument callable producing an ExperimentResult.
REGISTRY: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": experiments.table1_parameters,
    "fig11": experiments.fig11_illustration,
    "fig13": experiments.fig13_index_vs_objects,
    "fig14": experiments.fig14_index_vs_network,
    "fig15": experiments.fig15_object_update,
    "fig16": experiments.fig16_network_update,
    "fig17a": experiments.fig17a_knn_vs_k,
    "fig17b": experiments.fig17b_knn_vs_objects,
    "fig17c": experiments.fig17c_knn_vs_network,
    "fig18a": experiments.fig18a_range_vs_radius,
    "fig18b": experiments.fig18b_range_vs_objects,
    "fig18c": experiments.fig18c_range_vs_network,
    "fig19": experiments.fig19_hierarchy_levels,
    "ablation-lemma4": ablations.ablation_lemma4,
    "ablation-abstracts": ablations.ablation_abstracts,
    "ablation-partitioner": ablations.ablation_partitioner,
    "ablation-metric": ablations.ablation_metric,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the evaluation of 'Fast Object Search on "
        "Road Networks' (EDBT 2009).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', or 'list'",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also save rendered tables under DIR",
    )
    parser.add_argument(
        "--queries",
        type=int,
        metavar="N",
        help="queries per configuration (sets REPRO_QUERIES)",
    )
    parser.add_argument(
        "--scale",
        choices=("mini", "paper"),
        help="dataset scale (sets REPRO_SCALE)",
    )
    parser.add_argument(
        "--engine",
        choices=ROAD_MODES,
        help="ROAD serving mode: charged disk path (paper I/O model) or "
        "frozen in-memory fast path (sets REPRO_ENGINE)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.queries is not None:
        os.environ["REPRO_QUERIES"] = str(args.queries)
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = args.scale
    if args.engine is not None:
        os.environ[MODE_ENV] = args.engine

    if args.experiment == "list":
        for name in REGISTRY:
            print(name)
        return 0

    if args.experiment == "all":
        names = list(REGISTRY)
    elif args.experiment in REGISTRY:
        names = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"try: {', '.join(REGISTRY)}",
            file=sys.stderr,
        )
        return 2

    for name in names:
        result = REGISTRY[name]()
        print(result.render())
        print()
        if args.out:
            path = result.save(args.out)
            print(f"saved {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
