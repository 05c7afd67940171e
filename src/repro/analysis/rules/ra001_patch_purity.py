"""RA001 — uncharged-patch-purity."""

from __future__ import annotations

from typing import List

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import Project

#: Patch-path roots: everything these can reach must stay uncharged.
ROOT_CLASS = "FrozenRoad"
ROOT_METHODS = ("apply", "apply_object_delta", "_plan_tree_patch")

#: Method names that are (or lead straight into) charging entry points:
#: B+-tree descents (`search`/`get`-family mutators included), pager
#: buffer traffic, and the charged overlay/directory accessors.  Patch
#: code must use the `peek` / `stored_tree` / `peek_entries` family
#: instead.  Names here are *call-site* names: the approximate call
#: graph cannot type receivers, so a reachable body calling `.insert(...)`
#: on anything is a violation — patch paths have no business calling
#: any `insert` at all.
FORBIDDEN_METHODS = frozenset(
    {
        # BPlusTree charged surface
        "search",
        "insert",
        "delete",
        "range_scan",
        "min_key",
        # PageManager charged surface
        "read",
        "write",
        "allocate",
        # charged RouteOverlay accessors
        "shortcut_tree",
        "refresh_node",
        "refresh_nodes",
        # charged AssociationDirectory accessors (incl. the charged bulk
        # export: the recompile fallback must use peek_entries instead)
        "node_objects",
        "rnet_abstract",
        "rnet_may_contain",
        "export_entries",
    }
)

#: Attribute-call names the closure must not follow: each has several
#: same-named definitions where the one the patch path actually hits is
#: pure.  ``may_contain`` is ``RnetAbstract.may_contain`` (a predicate
#: test on a deep-copied snapshot) in ``_refresh_abstracts``, but the
#: name also belongs to the charged ``AbstractCache.may_contain``.  The
#: charged twin stays guarded: its own entry points
#: (``rnet_may_contain``) are in the forbidden set above.
AMBIGUOUS_PURE_NAMES = frozenset({"may_contain"})


@register_rule
class PatchPurityRule(Rule):
    """Patch paths must stay uncharged: ``peek``-family access only.

    Why: ``FrozenRoad.apply`` / ``apply_object_delta`` and the patch
    planner run during live maintenance, between query batches.  The
    charged B+-tree / pager entry points (``search``, ``insert``,
    ``read``, ``shortcut_tree``, ``node_objects``, ``export_entries``,
    ...) exist to *simulate the paper's disk stack*: they count I/O and
    disturb the LRU buffer.  If snapshot bookkeeping ever calls one, the
    reproduction's I/O figures silently include maintenance overhead and
    the buffer no longer reflects query traffic — the exact drift PR 2
    removed by introducing ``PageManager.peek`` / ``BPlusTree.peek`` /
    ``RouteOverlay.stored_tree`` / ``AssociationDirectory.peek_*``.

    How it checks: an approximate call-graph closure from the patch
    roots (``FrozenRoad.apply``, ``apply_object_delta``,
    ``_plan_tree_patch``); any reachable function that calls a method
    named in the forbidden set is reported, with the reaching chain.

    How to fix a finding: route the access through the uncharged family
    (``peek``, ``peek_node_objects``, ``peek_rnet_abstract``,
    ``peek_entries``, ``stored_tree``, ``iter_trees``) — or, if the call
    is genuinely benign (an unrelated method that happens to share a
    forbidden name), rename the method; sharing a name with a charging
    entry point is itself a maintenance hazard.
    """

    id = "RA001"
    title = "patch paths must not call charging B+-tree/pager entry points"

    def check(self, project: Project) -> List[Finding]:
        roots = project.find_methods(ROOT_CLASS, ROOT_METHODS)
        if not roots:
            return []
        came_from = project.reachable(roots, skip_names=AMBIGUOUS_PURE_NAMES)
        findings: List[Finding] = []
        for qualname in came_from:
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            for site in fn.calls:
                if site.kind == "name" or site.name not in FORBIDDEN_METHODS:
                    continue
                chain = " -> ".join(project.trace(came_from, qualname))
                findings.append(
                    Finding(
                        rule=self.id,
                        path=project.relative_path(project.module_of(fn)),
                        line=site.line,
                        message=(
                            f"charged call '.{site.name}(...)' on the "
                            f"uncharged patch path (reached via {chain}); "
                            f"use the peek/stored_tree family instead"
                        ),
                    )
                )
        findings.sort(key=lambda f: (f.path, f.line))
        return findings
