"""RA004 — zero-copy view lifecycle around buffer-resizing patches."""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.engine import Finding, Rule, register_rule
from repro.analysis.project import Project

#: FrozenRoad internals that resize / splice the backing ``array``
#: buffers.  Any method invoking one must drop cached views first.
RESIZING_CALLS = frozenset({"_recompile", "_rebuild_node_objects"})

#: The call that releases cached memoryview exports.
DROP_CALL = "_drop_views"

#: ``__init__`` builds the arrays before any view can exist.
EXEMPT_METHODS = frozenset({"__init__"})

#: FrozenRoad's lazily built per-snapshot caches: builder method -> the
#: attribute it fills.  ``_drop_views`` must reset every one of them —
#: the buffer views because a live export blocks a resize, the slot ->
#: Rnet-id table because a recompile renumbers the slots it inverts.
CACHED_VIEWS = {
    "_array_views": "_views",
    "_rnet_ids_by_slot": "_slot_rnets",
}

#: The only functions allowed to *create* zero-copy views: the backend
#: primitive (whose product FrozenRoad's cached view builders register
#: for `_drop_views` to release) and the snapshot-file mapper (whose
#: product `_SnapshotFile.close` releases).
VIEW_FACTORIES = frozenset({"view", "_map_snapshot"})


@register_rule
class ViewLifecycleRule(Rule):
    """Cached zero-copy views never outlive a buffer resize.

    Why: the shm and mmap backends serve queries through ``memoryview``
    views over typed buffers (shared-memory segments, the mapped
    snapshot file).  Those are *exports* at the C level: while one is
    alive, the buffer underneath cannot be resized or released
    (``BufferError``) — and a stale view that survived a splice reads
    the pre-patch layout.  The contract is therefore: ``_drop_views()`` before any patch step that
    can splice or recompile the arrays, and views are only (re)built by
    the registered factory methods that ``_drop_views`` knows about.

    How it checks:

    * in every class named ``FrozenRoad``, a method that calls
      ``_recompile`` or ``_rebuild_node_objects`` (the buffer-resizing
      steps) must call ``_drop_views`` at a lexically earlier line of
      the same method (``__init__`` is exempt — no views exist yet);
    * ``memoryview(...)`` / ``.frombuffer(...)`` may only appear inside
      the view-factory functions (the backends' ``view``, the snapshot
      file's ``_map_snapshot``) — ad-hoc views created elsewhere are
      invisible to ``_drop_views``;
    * every per-snapshot cache a ``FrozenRoad`` builds lazily
      (:data:`CACHED_VIEWS`: the array views and the slot -> Rnet-id
      table footprints translate through) is reset by an assignment in
      that class's ``_drop_views`` — the drop-ordering check above then
      guarantees none of them survives a recompile.

    How to fix a finding: call ``self._drop_views()`` before the first
    resizing step, move the view construction into one of the
    registered factories so the drop machinery tracks it, or reset the
    cache attribute in ``_drop_views``.
    """

    id = "RA004"
    title = "drop cached buffer views before any resizing patch step"

    def check(self, project: Project) -> List[Finding]:
        findings = self._check_drop_ordering(project)
        findings.extend(self._check_view_factories(project))
        findings.extend(self._check_caches_dropped(project))
        findings.sort(key=lambda f: (f.path, f.line))
        return findings

    def _check_drop_ordering(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for fn in project.functions.values():
            if (
                fn.class_name != "FrozenRoad"
                or fn.name in EXEMPT_METHODS
                or fn.name in RESIZING_CALLS
            ):
                continue
            resize_sites = [
                site
                for site in fn.calls
                if site.kind == "self" and site.name in RESIZING_CALLS
            ]
            if not resize_sites:
                continue
            first = min(site.line for site in resize_sites)
            drops = [
                site.line
                for site in fn.calls
                if site.kind == "self" and site.name == DROP_CALL
            ]
            if not drops or min(drops) > first:
                which = sorted({s.name for s in resize_sites})
                findings.append(
                    Finding(
                        self.id,
                        project.relative_path(project.module_of(fn)),
                        first,
                        f"{fn.name} calls {'/'.join(which)} without a "
                        f"preceding self.{DROP_CALL}() — live memoryview/"
                        f"frombuffer exports make the resize raise "
                        f"BufferError (or worse, read stale data)",
                    )
                )
        return findings

    def _check_caches_dropped(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for drop in project.find_methods("FrozenRoad", [DROP_CALL]):
            reset = {
                target.attr
                for node in ast.walk(drop.node)
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            }
            for builder, attr in sorted(CACHED_VIEWS.items()):
                built = (drop.module, "FrozenRoad", builder) in project.class_methods
                if built and attr not in reset:
                    findings.append(
                        Finding(
                            self.id,
                            project.relative_path(project.module_of(drop)),
                            drop.line,
                            f"{DROP_CALL} never resets self.{attr}, the "
                            f"per-snapshot cache {builder} fills — it would "
                            f"outlive the recompile that invalidates it",
                        )
                    )
        return findings

    def _check_view_factories(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for fn in project.functions.values():
            if fn.name in VIEW_FACTORIES:
                continue
            for site in fn.calls:
                is_view = (
                    site.kind == "name" and site.name == "memoryview"
                ) or (site.kind != "name" and site.name == "frombuffer")
                if is_view:
                    findings.append(
                        Finding(
                            self.id,
                            project.relative_path(project.module_of(fn)),
                            site.line,
                            f"zero-copy view created in {fn.name}, outside "
                            f"the registered view factories "
                            f"({', '.join(sorted(VIEW_FACTORIES))}); "
                            f"_drop_views cannot release it before a patch",
                        )
                    )
        return findings
