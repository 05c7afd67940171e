"""CLI contract of ``python -m repro.analysis`` — the CI gate's surface.

Exit codes are the contract CI leans on: 0 clean, 1 findings, 2 usage
errors.  Every seeded-violation fixture must drive the real CLI to a
nonzero exit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_ROOT = Path(repro.__file__).parent


def run_cli(*args):
    # The child must import the same ``repro`` this process did, whether it
    # is installed or found through pytest's ``pythonpath`` setting.
    path = [str(PACKAGE_ROOT.parent), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def test_real_tree_exits_zero():
    result = run_cli(PACKAGE_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())
)
def test_each_seeded_fixture_exits_nonzero(fixture):
    result = run_cli(FIXTURES / fixture)
    assert result.returncode == 1, result.stdout + result.stderr
    rule_id = fixture.split("_")[0].upper()
    assert rule_id in result.stdout


def test_rule_filter_selects_one_rule():
    fixture = FIXTURES / "ra002_unlocked_write"
    assert run_cli(fixture, "--rule", "RA002").returncode == 1
    assert run_cli(fixture, "--rule", "RA001").returncode == 0


def test_json_output_is_machine_readable():
    result = run_cli(FIXTURES / "ra005_eager_numpy", "--json")
    assert result.returncode == 1
    (finding,) = json.loads(result.stdout)
    assert finding["rule"] == "RA005"
    assert finding["path"] == "eager_numpy.py"
    assert finding["line"] == 7


def test_explain_prints_rationale_and_exits_zero():
    result = run_cli("--explain", "RA001")
    assert result.returncode == 0
    assert "Why:" in result.stdout
    assert "How to fix" in result.stdout


def test_list_names_every_rule():
    result = run_cli("--list")
    assert result.returncode == 0
    for rule_id in ("RA001", "RA002", "RA003", "RA004", "RA005"):
        assert rule_id in result.stdout


def test_unknown_rule_is_a_usage_error():
    assert run_cli("--explain", "RA999").returncode == 2
    assert run_cli(PACKAGE_ROOT, "--rule", "NOPE").returncode == 2


def test_missing_root_is_a_usage_error(tmp_path):
    assert run_cli(tmp_path / "does-not-exist").returncode == 2
