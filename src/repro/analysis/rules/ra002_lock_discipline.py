"""RA002 — executor lock discipline in the serving layer."""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Tuple

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import ModuleInfo, Project

#: The one lock every batch on the primary executor holds.
LOCK_ATTR = "_executor_lock"

#: Admission-batching state is *event-loop-thread-confined* by design
#: (see RoadService.submit) — it is never written under the executor
#: lock, because code holding that lock may run on a pool worker thread.
ADMISSION_ATTRS = frozenset(
    {"_pending", "_pending_count", "_in_flight", "_flush_handle"}
)


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockWalker(ast.NodeVisitor):
    """Walk one method body tracking whether the executor lock is held.

    Nested defs run on whichever thread calls them; their statements are
    judged in the lexical context where they appear.
    """

    def __init__(self, guarded_calls: FrozenSet[str]) -> None:
        self.guarded_calls = guarded_calls
        self.depth = 0  # enclosing ``with`` blocks naming the lock
        #: (line, message) per breach.
        self.breaches: List[Tuple[int, str]] = []

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locked = any(LOCK_ATTR in ast.unparse(item.context_expr) for item in node.items)
        self.depth += locked
        self.generic_visit(node)
        self.depth -= locked

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _written(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._written(element, line)
            return
        if isinstance(target, ast.Subscript):
            target = target.value
        attr = _self_attr(target)
        if self.depth and attr in ADMISSION_ATTRS:
            self.breaches.append(
                (
                    line,
                    f"loop-confined admission state 'self.{attr}' written "
                    f"under the executor lock; hand it back to the event "
                    f"loop instead",
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._written(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._written(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._written(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            not self.depth
            and isinstance(func, ast.Attribute)
            and func.attr in self.guarded_calls
        ):
            self.breaches.append(
                (
                    node.lineno,
                    f"'{ast.unparse(func)}(...)' called outside "
                    f"'with self.{LOCK_ATTR}:' — it can land under a batch "
                    f"executing on a pool thread",
                )
            )
        self.generic_visit(node)


@register_rule
class LockDisciplineRule(Rule):
    """Executor writes hold the one executor lock; admission state never does.

    Why: thread replicas (``repro.serving.replicas.LocalReplicas``) run
    each batch on a pool *worker* thread against the primary executor
    itself, holding ``RoadService._executor_lock``.  A maintenance or
    directory-management call on the executor outside that lock patches
    or swaps the snapshot under an executing batch — a torn read at
    best, a ``BufferError`` from a splice at worst.  Conversely
    ``RoadService``'s admission buckets (``_pending``,
    ``_pending_count``, ``_flush_handle``) are event-loop-confined and
    deliberately lock-free; code writing them while holding the lock
    has worker-thread code reaching into loop-owned state.

    How it checks: in every class that assigns ``self._executor_lock``,

    * a call of one of RA007's maintenance operations or
      ``attach_objects`` / ``detach_objects`` must be lexically inside a
      ``with`` naming the lock, whatever it is called on — the executor
      attribute itself or a local naming the same owner
      (``owner = self._owner(...)``);
    * admission-bucket writes must *not* appear inside one.

    How to fix a finding: wrap the write in ``with
    self._executor_lock:``; move admission mutations back onto the event
    loop via ``loop.call_soon_threadsafe``.
    """

    id = "RA002"
    title = "executor writes hold the executor lock; admission state never does"

    def check(self, project: Project) -> List[Finding]:
        # Imported here: a module-level import would register RA007
        # ahead of this rule and reorder the report.
        from repro.analysis.rules.ra007_cache_invalidation import (
            DIRECTORY_OPS,
            MAINTENANCE_OPS,
        )

        guarded_calls = MAINTENANCE_OPS | DIRECTORY_OPS
        findings: List[Finding] = []
        for module in project.iter_modules():
            for class_node in ast.walk(module.tree):
                if isinstance(class_node, ast.ClassDef) and self._guarded(class_node):
                    findings.extend(
                        self._check_class(module, class_node, project, guarded_calls)
                    )
        findings.sort(key=lambda f: (f.path, f.line))
        return findings

    @staticmethod
    def _guarded(class_node: ast.ClassDef) -> bool:
        """Does this class hold the executor lock at all?"""
        return any(
            _self_attr(target) == LOCK_ATTR
            for node in ast.walk(class_node)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
        )

    def _check_class(
        self,
        module: ModuleInfo,
        class_node: ast.ClassDef,
        project: Project,
        guarded_calls: FrozenSet[str],
    ) -> List[Finding]:
        path = project.relative_path(module)
        findings: List[Finding] = []
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _LockWalker(guarded_calls)
            for stmt in method.body:
                walker.visit(stmt)
            findings.extend(
                Finding(self.id, path, line, f"{message} (in {method.name})")
                for line, message in walker.breaches
            )
        return findings
