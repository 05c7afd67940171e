"""RA003 — dispatch completeness: declared kinds, no isinstance ladders."""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import Project


def _query_type_name(node: ast.expr) -> Optional[str]:
    """The ``*Query`` class named by an isinstance second argument."""
    if isinstance(node, ast.Name) and node.id.endswith("Query"):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr.endswith("Query"):
        return node.attr
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            name = _query_type_name(elt)
            if name is not None:
                return name
    return None


@register_rule
class DispatchCompletenessRule(Rule):
    """Every declared query kind reaches the ROAD engines by its method.

    Why: a query kind is declared once, in ``repro.queries.types``: its
    ``kind`` names the executor method that answers it, and
    ``QueryExecutor.execute`` (``repro.core.dispatch``) calls that
    method.  An ``isinstance(query, ...)`` ladder reintroduced in
    one executor silently diverges from the others the next time a kind
    is added: the protocol raises ``UnsupportedQueryError`` loudly, a
    ladder just falls through.  And a kind the charged ``ROAD`` or the
    compiled ``FrozenRoad`` has no method for is a kind the byte-identity
    contract (charged == frozen) cannot cover.

    How it checks: two halves.

    * **Static** (always): any ``isinstance(x, SomethingQuery)`` test in
      the scanned tree is flagged — executors answer through the method
      the query's ``kind`` names instead.
    * **Methods** (only when the real ``repro`` package is the scan
      target): imports ``ROAD``, ``FrozenRoad`` and ``QUERY_TYPES`` and
      asserts each engine has a method for every declared kind.

    How to fix a finding: for a ladder, delete it and let ``execute``
    call the method the kind names; for a missing method, add it to the
    engine, taking the query's fields in declaration order as positional
    arguments plus the ``directory=`` / ``stats=`` keywords (see
    ``FrozenRoad.knn`` for the pattern).
    """

    id = "RA003"
    title = "every declared query kind has its method (no isinstance ladders)"

    def check(self, project: Project) -> List[Finding]:
        findings = self._check_ladders(project)
        if "repro.queries.types" in project.modules:
            findings.extend(self._check_methods(project))
        return findings

    # -- static half ----------------------------------------------------
    def _check_ladders(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    continue
                name = _query_type_name(node.args[1])
                if name is not None:
                    findings.append(
                        Finding(
                            self.id,
                            project.relative_path(module),
                            node.lineno,
                            f"isinstance ladder on query type {name}; "
                            f"let execute call the method the query's "
                            f"kind names instead",
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line))
        return findings

    # -- method half ----------------------------------------------------
    def _check_methods(self, project: Project) -> List[Finding]:
        try:
            from repro.core.framework import ROAD
            from repro.core.frozen import FrozenRoad
            from repro.queries.types import QUERY_TYPES
        except ImportError:  # pragma: no cover - partial install
            return []

        path = project.relative_path(project.modules["repro.queries.types"])
        findings: List[Finding] = []
        for engine in (ROAD, FrozenRoad):
            missing = [
                query_type.kind
                for query_type in QUERY_TYPES
                if not callable(getattr(engine, query_type.kind, None))
            ]
            if missing:
                findings.append(
                    Finding(
                        self.id,
                        path,
                        1,
                        f"{engine.__name__} has no method for declared query "
                        f"kind(s) {', '.join(missing)}",
                    )
                )
        return findings
