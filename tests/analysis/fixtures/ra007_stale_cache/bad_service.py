"""Seeded RA007 violations: maintenance entry points that skip the cache.

``update_edge_distance`` and ``insert_object`` route through the
invalidation helper — the clean shape.  ``delete_object``, ``add_edge``
and ``detach_objects`` mutate what cached answers were computed from
without ever reaching an invalidator: three findings.
"""


class ResultCache:
    def __init__(self):
        self._entries = {}

    def invalidate_report(self, report):
        self._entries = {}

    def invalidate_directory(self, directory):
        self._entries = {}

    def clear_all(self):
        self._entries = {}


class MiniService:
    def __init__(self, executor):
        self._executor = executor
        self._cache = ResultCache()
        self._shards = []

    def update_edge_distance(self, u, v, distance):
        report = self._executor.reweigh(u, v, distance)
        self._invalidate(report)
        return report

    def insert_object(self, obj):
        report = self._executor.list_object(obj)
        self._invalidate(report)
        return report

    def delete_object(self, object_id):  # BUG: cached answers keep it
        return self._executor.delist_object(object_id)

    def add_edge(self, u, v, distance):  # BUG: structural, still cached
        return self._executor.open_segment(u, v, distance)

    def detach_objects(self, name):  # BUG: new snapshots, old answers
        self._shards = [self._executor.refreeze(name)]

    def _invalidate(self, report):
        self._cache.invalidate_report(report)
