"""RA002 — replica lock discipline in the serving layer."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import ModuleInfo, Project

#: Methods allowed to (re)bind the replica containers themselves: before
#: the pool starts there is nothing to race with.
SETUP_METHODS = frozenset({"__init__"})

#: Replica/shard state: element writes require an enclosing lock.
REPLICA_ATTRS = frozenset({"_replicas", "_replica_locks"})

#: Admission-batching state is *event-loop-thread-confined* by design
#: (see RoadService.submit) — it is never written under a replica lock,
#: because code holding a replica lock runs on a pool worker thread.
ADMISSION_ATTRS = frozenset(
    {"_pending", "_pending_count", "_in_flight", "_flush_handle"}
)


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten_targets(elt)
    else:
        yield target


class _LockWalker(ast.NodeVisitor):
    """Walk one method body tracking the enclosing ``with`` contexts."""

    def __init__(self) -> None:
        self.with_stack: List[str] = []
        #: (line, attr, write kind, joined with-contexts at that point)
        self.writes: List[Tuple[int, str, str, str]] = []

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        contexts = " ".join(
            ast.unparse(item.context_expr) for item in node.items
        )
        self.with_stack.append(contexts)
        for stmt in node.body:
            self.visit(stmt)
        self.with_stack.pop()

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _record(self, target: ast.expr, line: int) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._push(line, attr, "rebind")
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                self._push(line, attr, "element")

    def _push(self, line: int, attr: str, kind: str) -> None:
        self.writes.append((line, attr, kind, " ".join(self.with_stack)))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for leaf in _flatten_targets(target):
                self._record(leaf, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target, node.lineno)
        self.generic_visit(node)

    # Nested defs run on whichever thread calls them; their writes are
    # judged in the lexical context where they appear, which is exactly
    # the enclosing-with picture this walker maintains.


@register_rule
class LockDisciplineRule(Rule):
    """Replica/shard state is touched only under its per-replica lock.

    Why: ``repro.serving.replicas.ThreadReplicaSet`` keeps one
    ``FrozenRoad`` replica per pool thread, each guarded by a
    ``threading.Lock`` in ``_replica_locks``.  Query execution holds the
    lock on a *worker* thread (``_run_locked``); ``apply`` and
    ``replace_snapshot`` patch and swap replicas from the maintenance
    caller's thread.  A replica write outside its lock lets a rebuild
    swap an engine out from under an executing batch — a "stale read"
    at best, a corrupted snapshot at worst.  Conversely
    ``RoadService``'s admission buckets (``_pending``,
    ``_pending_count``, ``_flush_handle``) are event-loop-confined and
    deliberately lock-free; a class that writes them while holding a
    replica lock has worker-thread code reaching into loop-owned state.

    How it checks: in every class that defines ``_replica_locks``,

    * element writes (``self._replicas[i] = ...``) must be lexically
      inside a ``with`` whose context mentions a lock;
    * rebinding ``self._replicas`` / ``self._replica_locks`` wholesale
      is allowed only in ``__init__`` (before the pool exists);
    * admission-bucket writes must *not* appear under a replica lock.

    How to fix a finding: wrap the write in ``with
    self._replica_locks[index]:`` (or the lock variable for that
    replica); build the containers once in ``__init__`` and swap
    elements afterwards; move admission mutations back onto the event
    loop via ``loop.call_soon_threadsafe``.
    """

    id = "RA002"
    title = "replica state writes must hold the matching replica lock"

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            for class_node in ast.walk(module.tree):
                if isinstance(class_node, ast.ClassDef) and self._guarded(
                    class_node
                ):
                    findings.extend(self._check_class(module, class_node, project))
        findings.sort(key=lambda f: (f.path, f.line))
        return findings

    @staticmethod
    def _guarded(class_node: ast.ClassDef) -> bool:
        """Does this class manage replica locks at all?"""
        return any(
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and _self_attr(
                node.targets[0]
                if isinstance(node, ast.Assign)
                else node.target
            )
            == "_replica_locks"
            for node in ast.walk(class_node)
        )

    def _check_class(
        self, module: ModuleInfo, class_node: ast.ClassDef, project: Project
    ) -> List[Finding]:
        findings: List[Finding] = []
        path = project.relative_path(module)
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _LockWalker()
            for stmt in method.body:
                walker.visit(stmt)
            for line, attr, kind, contexts in walker.writes:
                locked = "lock" in contexts.lower()
                if attr in REPLICA_ATTRS:
                    if kind == "rebind" and method.name not in SETUP_METHODS:
                        findings.append(
                            Finding(
                                self.id,
                                path,
                                line,
                                f"'self.{attr}' rebound outside "
                                f"__init__ (in {method.name}); "
                                f"swap elements under their lock instead",
                            )
                        )
                    elif (
                        kind == "element"
                        and not locked
                        and method.name not in SETUP_METHODS
                    ):
                        findings.append(
                            Finding(
                                self.id,
                                path,
                                line,
                                f"'self.{attr}[...]' written outside a "
                                f"'with <replica lock>:' block "
                                f"(in {method.name})",
                            )
                        )
                elif attr in ADMISSION_ATTRS and "_replica_locks" in contexts:
                    findings.append(
                        Finding(
                            self.id,
                            path,
                            line,
                            f"loop-confined admission state 'self.{attr}' "
                            f"written under a replica lock (in {method.name}); "
                            f"hand it back to the event loop instead",
                        )
                    )
        return findings
