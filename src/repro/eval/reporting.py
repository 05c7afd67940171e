"""Experiment result containers and paper-style table rendering."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

Cell = Union[str, int, float]


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows of labelled measurements."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **cells: Cell) -> None:
        """Append one measurement row."""
        self.rows.append(cells)

    def column(self, name: str) -> List[Cell]:
        """All values of one column, in row order."""
        return [row.get(name, "") for row in self.rows]

    def note(self, text: str) -> None:
        """Attach a free-form observation (printed under the table)."""
        self.notes.append(text)

    def render(self) -> str:
        """Monospace table in the style of the paper's figures."""
        header = [self.columns]
        body = [
            [_format(row.get(col, "")) for col in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(str(line[i])) for line in header + body)
            for i in range(len(self.columns))
        ]
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.append(
            "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        )
        parts.append("  ".join("-" * w for w in widths))
        for line in body:
            parts.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the rendered table under ``directory``; return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.txt"
        path.write_text(self.render() + "\n")
        return path

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (the ``BENCH_*.json`` artifact payload)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def save_json(self, directory: Union[str, Path]) -> Path:
        """Write ``BENCH_<id>.json`` under ``directory``; return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        payload = self.to_dict()
        payload["generated_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        path = directory / f"BENCH_{self.experiment_id}.json"
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        return path


def _format(value: Cell) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def dominance(result: ExperimentResult, metric: str, by: str = "engine") -> str:
    """Which label has the smallest mean ``metric`` (winner summary)."""
    totals: Dict[str, List[float]] = {}
    for row in result.rows:
        label = str(row.get(by, "?"))
        value = row.get(metric)
        if isinstance(value, (int, float)):
            totals.setdefault(label, []).append(float(value))
    if not totals:
        return "n/a"
    means = {label: sum(vs) / len(vs) for label, vs in totals.items()}
    return min(means, key=means.__getitem__)
