#!/usr/bin/env python3
"""Baseline-ratcheted mypy gate (the CI ``typecheck`` job).

Runs mypy with the repo's pyproject config and diffs the errors against
the committed baseline (``tools/mypy_baseline.txt``):

* an error **not** in the baseline fails the run — new typing debt
  cannot land;
* baseline entries that no longer fire are reported as ratchet
  progress — run ``python tools/mypy_ratchet.py --update`` to shrink
  (never grow) the committed file.

Errors are normalised to ``path: [code] message`` — line numbers are
dropped so unrelated edits above an existing (baselined) error don't
break the gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "mypy_baseline.txt"

#: ``src/repro/x.py:12: error: message  [code]``
_ERROR_LINE = re.compile(
    r"^(?P<path>[^:]+):\d+(?::\d+)?: error: (?P<message>.*?)"
    r"(?:\s+\[(?P<code>[\w-]+)\])?$"
)


def run_mypy() -> tuple[list[str], str]:
    """Run mypy; return (normalised error keys, raw output)."""
    if importlib.util.find_spec("mypy") is None:
        raise SystemExit(
            "mypy is not installed — the ratchet must never pass vacuously; "
            "install it with pip install -e '.[dev]'"
        )
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--no-error-summary"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    raw = proc.stdout + proc.stderr
    if proc.returncode not in (0, 1):  # 2 = usage/crash, not findings
        print(raw, file=sys.stderr)
        raise SystemExit(f"mypy did not run cleanly (exit {proc.returncode})")
    keys = []
    for line in raw.splitlines():
        match = _ERROR_LINE.match(line.strip())
        if match:
            code = match.group("code") or "misc"
            keys.append(
                f"{match.group('path')}: [{code}] {match.group('message')}"
            )
    return keys, raw


def load_baseline() -> list[str]:
    if not BASELINE.exists():
        return []
    return [
        line
        for line in BASELINE.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current mypy output",
    )
    args = parser.parse_args(argv)

    current, raw = run_mypy()
    baseline = load_baseline()

    if args.update:
        header = (
            "# mypy ratchet baseline — known typing debt, one normalised\n"
            "# error per line.  Shrink only: regenerate with\n"
            "#   python tools/mypy_ratchet.py --update\n"
        )
        BASELINE.write_text(
            header + "".join(f"{key}\n" for key in sorted(current)),
            encoding="utf-8",
        )
        print(f"baseline updated: {len(current)} entr(y/ies)")
        return 0

    new = Counter(current) - Counter(baseline)
    fixed = Counter(baseline) - Counter(current)
    if fixed:
        print(f"ratchet progress: {sum(fixed.values())} baseline error(s) "
              f"no longer fire — run tools/mypy_ratchet.py --update")
    if new:
        print("new mypy errors (not in tools/mypy_baseline.txt):")
        for key, count in sorted(new.items()):
            suffix = f"  (x{count})" if count > 1 else ""
            print(f"  {key}{suffix}")
        print(f"\n{sum(new.values())} new error(s); full mypy output:\n")
        print(raw)
        return 1
    print(f"mypy ratchet: clean ({len(current)} baselined, 0 new)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
