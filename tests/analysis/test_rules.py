"""Per-rule checks: each seeded-violation fixture trips its rule (and
only its rule), and the matching clean shape passes.

The fixtures under ``tests/analysis/fixtures/`` are the executable
specification of what every rule catches; the CLI suite re-runs them
through ``python -m repro.analysis`` to pin the exit codes.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_path

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture directory -> (rule expected to fire, findings it must seed).
SEEDED = {
    "ra001_charged_patch": ("RA001", 1),
    "ra002_unlocked_write": ("RA002", 3),
    "ra003_isinstance_ladder": ("RA003", 2),
    "ra004_missing_drop": ("RA004", 2),
    "ra005_eager_numpy": ("RA005", 1),
    "ra006_shm_leak": ("RA006", 3),
    "ra007_stale_cache": ("RA007", 3),
}


@pytest.mark.parametrize("fixture", sorted(SEEDED))
def test_fixture_trips_exactly_its_rule(fixture):
    rule_id, count = SEEDED[fixture]
    findings = analyze_path(FIXTURES / fixture)
    assert len(findings) == count, [f.format() for f in findings]
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("fixture", sorted(SEEDED))
def test_fixture_is_quiet_under_every_other_rule(fixture):
    rule_id, _ = SEEDED[fixture]
    others = sorted(set(r for r, _ in SEEDED.values()) - {rule_id})
    assert analyze_path(FIXTURES / fixture, rule_ids=others) == []


def test_findings_carry_fixture_relative_paths_and_lines():
    findings = analyze_path(FIXTURES / "ra002_unlocked_write")
    assert [f.path for f in findings] == ["bad_service.py"] * 3
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    for finding in findings:
        assert finding.format().startswith(f"bad_service.py:{finding.line}: RA002 ")


# ---------------------------------------------------------------------------
# Clean counterparts: the locked/gated/registered shapes must not fire.
# ---------------------------------------------------------------------------

def _check(tmp_path, source, rule_id):
    (tmp_path / "module.py").write_text(source)
    return analyze_path(tmp_path, rule_ids=[rule_id])


def test_ra001_peek_family_is_pure(tmp_path):
    assert _check(
        tmp_path,
        "class FrozenRoad:\n"
        "    def apply(self, report, road=None):\n"
        "        self._recompile(road)\n"
        "    def _recompile(self, road):\n"
        "        return road.directory('objects').peek_entries()\n",
        "RA001",
    ) == []


def test_ra002_locked_writes_pass(tmp_path):
    assert _check(
        tmp_path,
        "class Service:\n"
        "    def __init__(self, executor):\n"
        "        self._executor = executor\n"
        "        self._executor_lock = object()\n"
        "        self._pending_count = 0\n"
        "    def detach_objects(self, name):\n"
        "        with self._executor_lock:\n"
        "            self._executor.detach_objects(name)\n"
        "        self._pending_count = 0\n"
        "    def run(self, query):\n"
        "        # Reads are not what the rule polices.\n"
        "        return self._executor.execute(query)\n",
        "RA002",
    ) == []


def test_ra002_ignores_classes_without_an_executor_lock(tmp_path):
    assert _check(
        tmp_path,
        "class Plain:\n"
        "    def __init__(self, executor):\n"
        "        self._executor = executor\n"
        "    def remove_edge(self, u, v):\n"
        "        return self._executor.remove_edge(u, v)\n",
        "RA002",
    ) == []


def test_ra003_non_query_isinstance_passes(tmp_path):
    assert _check(
        tmp_path,
        "def coerce(value):\n"
        "    if isinstance(value, str):\n"
        "        return value\n"
        "    return str(value)\n",
        "RA003",
    ) == []


def test_ra003_flags_a_declared_kind_without_its_method(monkeypatch):
    import repro
    from repro.core.frozen import FrozenRoad

    monkeypatch.delattr(FrozenRoad, "route_knn")
    (finding,) = analyze_path(Path(repro.__file__).parent, rule_ids=["RA003"])
    assert finding.path == "queries/types.py"
    assert finding.message == (
        "FrozenRoad has no method for declared query kind(s) route_knn"
    )


def test_ra004_drop_before_resize_passes(tmp_path):
    assert _check(
        tmp_path,
        "class FrozenRoad:\n"
        "    def apply(self, report):\n"
        "        self._drop_views()\n"
        "        self._recompile(report)\n"
        "    def _drop_views(self):\n"
        "        self._views = None\n"
        "    def _recompile(self, report):\n"
        "        pass\n",
        "RA004",
    ) == []


_RA004_CACHED_TABLE = (
    "class FrozenRoad:\n"
    "    def _rnet_ids_by_slot(self):\n"
    "        if self._slot_rnets is None:\n"
    "            self._slot_rnets = tuple(self._rnet_index)\n"
    "        return self._slot_rnets\n"
    "    def _drop_views(self):\n"
    "        self._views = None\n"
)


def test_ra004_cached_slot_table_must_be_dropped(tmp_path):
    (finding,) = _check(tmp_path, _RA004_CACHED_TABLE, "RA004")
    assert "_slot_rnets" in finding.message and finding.line == 6
    assert _check(
        tmp_path, _RA004_CACHED_TABLE + "        self._slot_rnets = None\n", "RA004"
    ) == []


def test_ra004_numpy_view_builders_are_no_longer_factories(tmp_path):
    """The numpy backend's view builders left the registry with it: a
    `frombuffer` view is ad hoc wherever it is built."""
    (finding,) = _check(
        tmp_path,
        "class FrozenRoad:\n"
        "    def _numpy_views(self):\n"
        "        return self._backend.frombuffer(self._sc_weight)\n",
        "RA004",
    )
    assert "zero-copy view created in _numpy_views" in finding.message


def test_ra006_owner_guarded_lifecycle_passes(tmp_path):
    (tmp_path / "shm_arrays.py").write_text(
        "from multiprocessing.shared_memory import SharedMemory\n"
        "class Vector:\n"
        "    def __init__(self, size):\n"
        "        self._shm = SharedMemory(create=True, size=size)\n"
        "        self._owner = True\n"
        "    def close(self):\n"
        "        self._shm.close()\n"
        "        if self._owner:\n"
        "            self._shm.unlink()\n"
    )
    assert analyze_path(tmp_path, rule_ids=["RA006"]) == []


def test_ra007_invalidating_entry_points_pass(tmp_path):
    assert _check(
        tmp_path,
        "class ResultCache:\n"
        "    def invalidate_report(self, report): pass\n"
        "    def invalidate_directory(self, directory): pass\n"
        "    def clear_all(self): pass\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._cache = ResultCache()\n"
        "    def add_edge(self, u, v, distance):\n"
        "        report = self._executor.open_segment(u, v, distance)\n"
        "        self._invalidate(report)\n"
        "        return report\n"
        "    def detach_objects(self, name):\n"
        "        self._cache.invalidate_directory(name)\n"
        "    def _invalidate(self, report):\n"
        "        self._cache.invalidate_report(report)\n",
        "RA007",
    ) == []


def test_ra007_cacheless_classes_are_exempt(tmp_path):
    # Engines and pools have maintenance entry points but no cache to
    # invalidate — the rule only binds classes that hold one.
    assert _check(
        tmp_path,
        "class ResultCache:\n"
        "    def invalidate_report(self, report): pass\n"
        "    def clear_all(self): pass\n"
        "class Engine:\n"
        "    def add_edge(self, u, v, distance):\n"
        "        return self._network.open_segment(u, v, distance)\n",
        "RA007",
    ) == []


def test_ra007_inert_without_a_result_cache(tmp_path):
    assert _check(
        tmp_path,
        "class Service:\n"
        "    def add_edge(self, u, v, distance):\n"
        "        return self._executor.open_segment(u, v, distance)\n",
        "RA007",
    ) == []


def test_ra005_type_checking_guard_passes(tmp_path):
    assert _check(
        tmp_path,
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n",
        "RA005",
    ) == []


def test_ra005_gate_module_is_allowed(tmp_path):
    (tmp_path / "_optional.py").write_text("import numpy\n")
    assert analyze_path(tmp_path, rule_ids=["RA005"]) == []


def test_ra005_backend_module_is_no_longer_allowed(tmp_path):
    """No backend needs numpy, so `frozen_backends.py` lost its pass."""
    (tmp_path / "frozen_backends.py").write_text("import numpy\n")
    (finding,) = analyze_path(tmp_path, rule_ids=["RA005"])
    assert finding.path == "frozen_backends.py"


# ---------------------------------------------------------------------------
# The real tree: every invariant the rules encode actually holds.
# ---------------------------------------------------------------------------

def test_real_package_is_clean():
    import repro

    root = Path(repro.__file__).parent
    findings = analyze_path(root)
    assert findings == [], [f.format() for f in findings]
