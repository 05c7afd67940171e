"""RA002 seeded violations: the executor lock held where it must not be,
and missing where it must.

Three distinct breaches of the serving layer's lock discipline: a
maintenance call on the executor outside the lock, a directory-management
call outside it, and loop-confined admission state written while holding
it.
"""

import threading


class BadService:
    def __init__(self, executor):
        self._executor = executor
        self._executor_lock = threading.Lock()
        self._pending_count = 0

    def update_edge_distance(self, u, v, distance):
        # BAD: patches the snapshot under a batch on a pool thread.
        return self._executor.update_edge_distance(u, v, distance)

    def attach_objects(self, objects, name):
        # BAD: drops the snapshot under a batch on a pool thread.
        return self._executor.attach_objects(objects, name=name)

    def drain(self):
        with self._executor_lock:
            # BAD: admission state is event-loop-confined; code holding
            # the executor lock may run on a pool thread.
            self._pending_count = 0

    def remove_edge(self, u, v):
        # GOOD: the shape the rule accepts — must NOT be flagged.
        with self._executor_lock:
            return self._executor.remove_edge(u, v)
