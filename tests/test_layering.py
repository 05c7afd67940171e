"""The import layering: ``queries`` ← ``core`` ← ``baselines`` ← ``serving``.

The serving tier sits on top of the library.  The dispatch protocol the
engines implement lives in :mod:`repro.core.dispatch`, so no module of
the library layers imports :mod:`repro.serving`, and importing the core
engine never loads the serving tier.  Stdlib only, so the no-numpy CI
leg runs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

#: The packages below the serving tier.
LIBRARY = (
    "core",
    "baselines",
    "queries",
    "graph",
    "storage",
    "partition",
    "objects",
    "eval",
)


def _imported_modules(tree):
    """Every absolute module name an ``import`` / ``from`` names,
    ``TYPE_CHECKING`` blocks and function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            # ``from repro import serving`` names the package as an alias.
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("package", LIBRARY)
def test_library_layers_never_import_serving(package):
    offenders = []
    for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.relative_to(PACKAGE_ROOT)}: {name}"
            for name in _imported_modules(tree)
            if name == "repro.serving" or name.startswith("repro.serving.")
        )
    assert offenders == []


def test_importing_the_core_engine_leaves_serving_unloaded():
    # The child must import the same ``repro`` this process did, whether
    # it is installed or found through pytest's ``pythonpath`` setting.
    path = [str(PACKAGE_ROOT.parent), os.environ.get("PYTHONPATH", "")]
    probe = (
        "import sys\n"
        "import repro.core.frozen\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.serving'))\n"
        "print(','.join(loaded))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
