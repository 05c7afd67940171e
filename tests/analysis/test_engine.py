"""Engine/framework checks: registry, explain text, project model."""

from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Finding,
    Project,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    run_rules,
)

EXPECTED_RULES = (
    "RA001", "RA002", "RA003", "RA004", "RA005", "RA006", "RA007"
)


def test_all_rules_registered_in_report_order():
    assert tuple(rule.id for rule in all_rules()) == EXPECTED_RULES


def test_get_rule_is_case_insensitive():
    assert get_rule("ra004").id == "RA004"
    assert get_rule("RA004") is get_rule("ra004")


def test_get_rule_unknown_raises_analysis_error():
    with pytest.raises(AnalysisError, match="RA999"):
        get_rule("RA999")


def test_double_registration_raises():
    class Duplicate(Rule):
        id = "RA001"
        title = "impostor"

        def check(self, project):
            return []

    with pytest.raises(AnalysisError, match="RA001"):
        register_rule(Duplicate)


def test_every_rule_explains_why_and_how():
    for rule in all_rules():
        text = rule.explain()
        assert "Why:" in text, rule.id
        assert "How it checks" in text, rule.id
        assert "How to fix" in text, rule.id


def test_finding_format_is_path_line_rule_message():
    finding = Finding("RA001", "core/frozen.py", 42, "boom")
    assert finding.format() == "core/frozen.py:42: RA001 boom"


def test_run_rules_filters_by_rule_id(tmp_path):
    (tmp_path / "mod.py").write_text("import numpy\n")
    project = Project.load(tmp_path)
    assert {f.rule for f in run_rules(project)} == {"RA005"}
    assert run_rules(project, rule_ids=["RA001"]) == []


# ---------------------------------------------------------------------------
# Project model: module naming and the approximate call graph.
# ---------------------------------------------------------------------------

def test_project_load_derives_package_dotted_names():
    import repro

    project = Project.load(Path(repro.__file__).parent)
    assert "repro.core.frozen" in project.modules
    assert "repro.core.dispatch" in project.modules
    assert "repro" in project.modules  # the package __init__


def test_call_graph_reaches_through_self_calls(tmp_path):
    (tmp_path / "m.py").write_text(
        "class C:\n"
        "    def top(self):\n"
        "        self.middle()\n"
        "    def middle(self):\n"
        "        helper()\n"
        "def helper():\n"
        "    pass\n"
    )
    project = Project.load(tmp_path)
    roots = project.find_methods("C", ["top"])
    came_from = project.reachable(roots)
    assert "m:helper" in came_from
    assert project.trace(came_from, "m:helper") == [
        "m:C.top",
        "m:C.middle",
        "m:helper",
    ]


def test_call_graph_skips_generic_and_rule_supplied_names(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def items(self):\n"
        "        pass\n"
        "    def custom(self):\n"
        "        pass\n"
        "class B:\n"
        "    def root(self):\n"
        "        x.items()\n"
        "        x.custom()\n"
    )
    project = Project.load(tmp_path)
    roots = project.find_methods("B", ["root"])
    # `items` is generic (never followed); `custom` resolves by name.
    assert "m:A.custom" in project.reachable(roots)
    assert "m:A.items" not in project.reachable(roots)
    # A rule-supplied skip name prunes the edge.
    assert "m:A.custom" not in project.reachable(roots, skip_names=["custom"])


def test_nested_defs_shadow_module_functions(tmp_path):
    (tmp_path / "m.py").write_text(
        "def helper():\n"
        "    pass\n"
        "def outer():\n"
        "    def helper():\n"
        "        pass\n"
        "    helper()\n"
    )
    project = Project.load(tmp_path)
    fn = project.functions["m:outer"]
    (resolved,) = project.resolve_call(fn, fn.calls[0])
    assert resolved.qualname == "m:outer.helper"
