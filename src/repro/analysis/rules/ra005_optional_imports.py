"""RA005 — optional heavy deps import lazily, through ``repro._optional``."""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import ModuleInfo, Project

#: Optional dependencies gated behind extras.
OPTIONAL_PACKAGES = frozenset({"numpy"})

#: Module basenames allowed to import the optional packages directly:
#: the gate itself, nothing else.
ALLOWED_MODULES = frozenset({"_optional"})


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _root_package(name: str) -> str:
    return name.split(".", 1)[0]


class _ImportWalker(ast.NodeVisitor):
    """Find optional-package imports outside ``if TYPE_CHECKING:`` blocks."""

    def __init__(self) -> None:
        self.hits: List[ast.stmt] = []
        self._guard_depth = 0

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test):
            self._guard_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._guard_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self._guard_depth == 0 and any(
            _root_package(alias.name) in OPTIONAL_PACKAGES
            for alias in node.names
        ):
            self.hits.append(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            self._guard_depth == 0
            and node.module is not None
            and _root_package(node.module) in OPTIONAL_PACKAGES
        ):
            self.hits.append(node)


@register_rule
class LazyOptionalImportsRule(Rule):
    """numpy (and future optional deps) import only through the gate.

    Why: the package promises a working pure-stdlib install — numpy is
    the ``[numpy]`` extra, feeding the synthetic generators, placement
    and workload sampling but never required by the core or any frozen
    backend.  A stray top-level ``import numpy`` in any module that the
    core paths (or the CLI) transitively import breaks every
    numpy-less environment at import time, which is exactly what the
    ``tests-no-numpy`` CI leg exists to prevent.  ``repro._optional``
    centralises the gate so a missing dep surfaces as one actionable
    error message instead of an ImportError five frames deep.

    How it checks: flags any ``import numpy`` / ``from numpy import``
    outside ``_optional.py``, the gate.  Imports inside ``if
    TYPE_CHECKING:`` blocks are fine: they cost nothing at runtime and
    keep annotations precise.

    How to fix a finding: replace the import with ``np =
    require_numpy("<feature name>")`` from ``repro._optional`` at the
    point of use, or move it under ``if TYPE_CHECKING:`` if it is only
    needed for annotations (then quote the annotations).
    """

    id = "RA005"
    title = "optional deps (numpy) import only via repro._optional"

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            if module.path.stem in ALLOWED_MODULES:
                continue
            findings.extend(self._check_module(project, module))
        findings.sort(key=lambda f: (f.path, f.line))
        return findings

    def _check_module(
        self, project: Project, module: ModuleInfo
    ) -> List[Finding]:
        walker = _ImportWalker()
        walker.visit(module.tree)
        return [
            Finding(
                self.id,
                project.relative_path(module),
                node.lineno,
                "direct numpy import outside repro._optional; use "
                "require_numpy(...) or an 'if TYPE_CHECKING:' guard",
            )
            for node in walker.hits
        ]
