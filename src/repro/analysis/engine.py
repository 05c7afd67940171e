"""The rule framework: findings, the rule registry, and the runner.

A rule is a class with an ``id`` (``RA001`` ...), a one-line ``title``,
a docstring that *is* its ``--explain`` text (what the rule protects,
why the invariant matters, how to fix a finding), and a
:meth:`Rule.check` that inspects a :class:`~repro.analysis.project.Project`
and returns :class:`Finding`\\ s.  Rules register themselves with
:func:`register_rule`; :func:`run_rules` drives them over one scanned
tree.

Adding a rule:

1. create ``rules/raNNN_short_name.py`` defining a ``Rule`` subclass
   decorated with ``@register_rule``;
2. import it from ``rules/__init__.py`` (import order is report order);
3. add a seeded-violation fixture under ``tests/analysis/fixtures/`` and
   a test asserting the rule fires on the fixture and stays quiet on the
   real tree.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Type

from repro.analysis.project import Project


class AnalysisError(Exception):
    """Raised on misuse of the analysis engine (unknown rule, bad root)."""


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class Rule(ABC):
    """One invariant, encoded.  Subclasses are stateless."""

    id: ClassVar[str]
    title: ClassVar[str]

    @abstractmethod
    def check(self, project: Project) -> List[Finding]:
        """Scan one project tree; return every violation found."""

    @classmethod
    def explain(cls) -> str:
        """The rule's rationale and fix guidance (its docstring)."""
        doc = cls.__doc__ or cls.title
        return inspect.cleandoc(doc)


#: Registered rules by id, in registration (== report) order.
_RULES: Dict[str, Type[Rule]] = {}


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry.

    Double registration raises — two rules fighting over an id is always
    a bug.
    """
    rule_id = rule_cls.id
    if rule_id in _RULES:
        raise AnalysisError(
            f"rule {rule_id} already registered ({_RULES[rule_id]!r})"
        )
    _RULES[rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule, in registration order."""
    _ensure_loaded()
    return list(_RULES.values())


def get_rule(rule_id: str) -> Type[Rule]:
    """One rule by id (case-insensitive); raises on unknown ids."""
    _ensure_loaded()
    rule = _RULES.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(_RULES))
        raise AnalysisError(f"unknown rule {rule_id!r} (known: {known})")
    return rule


def _ensure_loaded() -> None:
    # Rules self-register on import; importing the package is idempotent.
    import repro.analysis.rules  # noqa: F401


def run_rules(
    project: Project, rule_ids: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the selected rules (default: all) over one scanned tree."""
    if rule_ids is None:
        selected = all_rules()
    else:
        selected = [get_rule(rule_id) for rule_id in rule_ids]
    findings: List[Finding] = []
    for rule_cls in selected:
        findings.extend(rule_cls().check(project))
    return findings


def analyze_path(
    root: Path, rule_ids: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Load ``root`` and run the selected rules over it."""
    if not root.exists():
        raise AnalysisError(f"no such file or directory: {root}")
    return run_rules(Project.load(root), rule_ids)
