"""RA007 — maintenance paths must reach the result-cache invalidators."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import FunctionInfo, Project

#: The only methods that evict cached answers.  Everything a
#: maintenance path may do to the network or a directory must funnel
#: into one of these (directly or through a helper like
#: ``RoadService._invalidate_cache``) before the change is visible to
#: queries.
SINKS = frozenset({"invalidate_report", "invalidate_directory", "clear_all"})

#: The class owning the sinks.
CACHE_CLASS = "ResultCache"

#: The six maintenance operations (RA002 polices their calls).
MAINTENANCE_OPS = frozenset(
    {
        "insert_object",
        "delete_object",
        "update_object_attrs",
        "update_edge_distance",
        "add_edge",
        "remove_edge",
    }
)

#: The directory-membership operations (RA002 polices their calls too).
DIRECTORY_OPS = frozenset({"attach_objects", "detach_objects"})

#: Entry points that dirty what cached answers were computed from: the
#: maintenance operations, plus the paths that swap a snapshot — the
#: directory-membership operations and ``replace_snapshot`` (a swapped
#: snapshot changes answers' provenance though no report describes the
#: delta).
ENTRY_POINTS = MAINTENANCE_OPS | DIRECTORY_OPS | {"replace_snapshot"}


@register_rule
class CacheInvalidationRule(Rule):
    """Every maintenance entry point on a caching class reaches the cache.

    Why: the result cache (:mod:`repro.serving.result_cache`) serves
    answers *without executing them* — its one safety property is that
    every mutation of the network or an object directory evicts (or
    generation-refuses) the entries it could have changed.  A
    maintenance entry point that patches replicas but never reaches an
    invalidator silently serves pre-patch answers forever; no test that
    happens to skip that op will notice.  The churn-soak equivalence
    suite proves the *current* wiring correct; this rule keeps the next
    maintenance op honest at review time.

    How it checks: in any scanned tree that defines ``ResultCache`` with
    its invalidation sinks (``invalidate_report`` /
    ``invalidate_directory`` / ``clear_all``), every class that holds a
    cache — it constructs ``ResultCache(...)`` or calls a sink directly
    somewhere — must have each of its maintenance/snapshot entry points
    (:data:`ENTRY_POINTS`, when defined) reach a sink in the
    approximate call-graph closure.  Classes that never touch a cache
    (engines, pools) are exempt: they have nothing to invalidate.

    How to fix a finding: route the entry point through the class's
    invalidation helper (``self._invalidate_cache(report)`` /
    ``apply_report``), or call ``invalidate_directory`` / ``clear_all``
    when the change has no per-identity report (refreezes, snapshot
    swaps, membership changes).
    """

    id = "RA007"
    title = "maintenance entry points reach the result-cache invalidators"

    def check(self, project: Project) -> List[Finding]:
        sink_quals = {
            fn.qualname
            for fn in project.functions.values()
            if fn.class_name == CACHE_CLASS and fn.name in SINKS
        }
        if not sink_quals:
            return []  # this tree has no result cache to invalidate
        findings: List[Finding] = []
        for (module, class_name), methods in self._classes(project).items():
            if class_name == CACHE_CLASS or not self._holds_cache(methods):
                continue
            for fn in methods:
                if fn.name not in ENTRY_POINTS:
                    continue
                reached = project.reachable([fn])
                if sink_quals.isdisjoint(reached):
                    findings.append(
                        Finding(
                            self.id,
                            project.relative_path(project.module_of(fn)),
                            fn.line,
                            f"{class_name}.{fn.name} mutates what cached "
                            f"answers were computed from but never reaches "
                            f"{CACHE_CLASS}."
                            f"{'/'.join(sorted(SINKS))} — the cache keeps "
                            f"serving pre-patch answers after this "
                            f"operation",
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line))
        return findings

    @staticmethod
    def _classes(
        project: Project,
    ) -> Dict[Tuple[str, str], List[FunctionInfo]]:
        classes: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        for fn in project.functions.values():
            if fn.class_name is not None:
                classes.setdefault((fn.module, fn.class_name), []).append(fn)
        return classes

    @staticmethod
    def _holds_cache(methods: List[FunctionInfo]) -> bool:
        """A class holds a cache when it constructs one or calls a sink
        directly — indirect holders go through those same helpers."""
        for fn in methods:
            for site in fn.calls:
                if site.name == CACHE_CLASS or site.name in SINKS:
                    return True
        return False
