"""The import layering: ``queries`` ← ``core`` ← {``baselines``, ``serving``}.

The query and write declarations in :mod:`repro.queries` sit below the
engines.  The serving tier sits on top of the library.  The dispatch protocol the
engines implement lives in :mod:`repro.core.dispatch`, so no module of
the library layers imports :mod:`repro.serving`, and importing the core
engine never loads the serving tier.  The served ROAD's owner lives in
:mod:`repro.core.owner`, so the serving tier never imports the paper's
comparison engines in :mod:`repro.baselines` either.  Three more contracts live here:
every module imports with numpy and scipy blocked, a served network is
generated, populated and served without either being loaded (the package
is stdlib-only, its generators included), only
:mod:`repro.core.shm_arrays` creates a shared-memory segment, and a
process worker's entry module loads neither asyncio nor the serving
front-end.  Stdlib only.
"""

import ast
import json
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


def _parsed(root):
    """(path, AST) of every module under ``root``."""
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _child_env():
    """The child must import the same ``repro`` this process did, whether
    it is installed or found through pytest's ``pythonpath`` setting."""
    path = [str(PACKAGE_ROOT.parent), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


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
    for path, tree in _parsed(PACKAGE_ROOT / package):
        offenders.extend(
            f"{path.relative_to(PACKAGE_ROOT)}: {name}"
            for name in _imported_modules(tree)
            if name == "repro.serving" or name.startswith("repro.serving.")
        )
    assert offenders == []


def test_serving_never_imports_the_comparison_engines():
    offenders = []
    for path, tree in _parsed(PACKAGE_ROOT / "serving"):
        offenders.extend(
            f"{path.relative_to(PACKAGE_ROOT)}: {name}"
            for name in _imported_modules(tree)
            if name == "repro.baselines" or name.startswith("repro.baselines.")
        )
    assert offenders == []
    # Nor through another module: the HTTP edge boots without them.
    probe = (
        "import sys\n"
        "import repro.serving.http\n"
        "print(','.join(sorted(m for m in sys.modules\n"
        "    if m.startswith('repro.baselines'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_queries_import_no_engine_or_serving_layer():
    """``repro.queries`` declares the query and write kinds that every
    layer above it reads, so it imports none of them."""
    above = {"repro.core", "repro.baselines", "repro.serving"}
    offenders = []
    for path, tree in _parsed(PACKAGE_ROOT / "queries"):
        offenders.extend(
            f"{path.relative_to(PACKAGE_ROOT)}: {name}"
            for name in _imported_modules(tree)
            if ".".join(name.split(".")[:2]) in above
        )
    assert offenders == []


def _callers(*names):
    """Modules (relative paths) that call a function by one of ``names``."""
    return {
        path.relative_to(PACKAGE_ROOT).as_posix()
        for path, tree in _parsed(PACKAGE_ROOT)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in names
    }


def test_only_shm_arrays_creates_shared_memory():
    """Raw segments come from one module, whose vectors close every
    descriptor and mapping they hold: a ``memfd_create`` elsewhere would
    escape that lifecycle and the process pool's sync protocol.  Nothing
    builds a named segment or a ``multiprocessing`` queue or context,
    each of which starts a resource tracker process."""
    assert _callers("memfd_create") == {"core/shm_arrays.py"}
    assert _callers("SharedMemory", "SimpleQueue", "get_context") == set()


def test_the_process_worker_loads_no_asyncio_front_end():
    """A process worker imports :mod:`repro.serving.process_pool` alone;
    the package resolves the service's names lazily, so neither asyncio
    nor the admission pipeline in :mod:`repro.serving.service` comes
    with it."""
    probe = (
        "import sys\n"
        "import repro.serving.process_pool\n"
        "print(','.join(sorted(m for m in ('asyncio', 'repro.serving.service')\n"
        "    if m in sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
    # Every public name still resolves from the package.
    import repro.serving

    for name in repro.serving.__all__:
        getattr(repro.serving, name)


#: Every module under ``repro`` but ``__main__`` scripts, read off the
#: source tree so collecting the tests imports none of them.
MODULES = sorted(
    ".".join(("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts)
    .removesuffix(".__init__")
    for path in PACKAGE_ROOT.rglob("*.py")
    if path.name != "__main__.py"
)


@pytest.fixture(scope="module")
def numpy_free_imports():
    """One fresh interpreter with numpy and scipy blocked imports every
    module ``pkgutil.walk_packages`` finds: module name -> ``""`` when it
    imported, else the error."""
    probe = (
        "import importlib, json, pkgutil, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "import repro\n"
        "outcome = {'repro': ''}\n"
        "def walk_failed(name):\n"
        "    outcome[name] = 'the package failed to import during the walk'\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.', walk_failed):\n"
        "    if info.name.endswith('.__main__'):\n"
        "        continue\n"
        "    try:\n"
        "        importlib.import_module(info.name)\n"
        "    except ImportError as exc:\n"
        "        outcome[info.name] = f'{type(exc).__name__}: {exc}'\n"
        "    else:\n"
        "        outcome.setdefault(info.name, '')\n"
        "print(json.dumps(outcome))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_without_numpy(numpy_free_imports, module):
    """An eager numpy or scipy import anywhere — direct or through another
    module — fails the module that makes it here, not on a stdlib-only
    install."""
    assert module in numpy_free_imports, "pkgutil.walk_packages did not reach it"
    assert numpy_free_imports[module] == ""


def test_the_walk_finds_only_modules_of_the_tree(numpy_free_imports):
    assert sorted(numpy_free_imports) == MODULES


def test_importing_the_core_engine_leaves_serving_unloaded():
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
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_a_served_mini_ca_loads_neither_numpy_nor_scipy():
    """The path every benchmark server boots through: generate the mini
    CA network, place objects on it, build and query a ``RoadService``."""
    probe = (
        "import sys\n"
        "from repro.eval.datasets import load_dataset\n"
        "from repro.objects.placement import place_uniform\n"
        "from repro.queries.types import KNNQuery\n"
        "from repro.serving import RoadService, ServiceConfig\n"
        "network = load_dataset('CA').network\n"
        "objects = place_uniform(network, 100, seed=1)\n"
        "service = RoadService.build(\n"
        "    network, objects, config=ServiceConfig()\n"
        ")\n"
        "assert len(service.run(KNNQuery(0, 3))) == 3\n"
        "service.close()\n"
        "print(network.num_nodes, ','.join(sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')\n"
        ")))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2100"]
