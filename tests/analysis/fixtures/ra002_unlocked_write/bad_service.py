"""RA002 seeded violations: replica state touched without its lock.

Three distinct breaches of the serving layer's lock discipline, one per
clause of the rule: an unlocked element write, a wholesale rebind
outside setup, and loop-confined admission state written while holding
a replica lock.
"""

import threading


class BadService:
    def __init__(self):
        self._replicas = [None]
        self._replica_locks = [threading.Lock()]
        self._pending_count = 0

    def hot_swap(self, index, snapshot):
        # BAD: element write without `with self._replica_locks[index]:`.
        self._replicas[index] = snapshot

    def grow_pool(self, snapshot):
        # BAD: container rebind outside __init__.
        self._replicas = [*self._replicas, snapshot]

    def drain(self, index):
        with self._replica_locks[index]:
            # BAD: admission state is event-loop-confined; a worker
            # thread holding a replica lock must not touch it.
            self._pending_count = 0

    def locked_swap(self, index, snapshot):
        # GOOD: the shape the rule accepts — must NOT be flagged.
        with self._replica_locks[index]:
            self._replicas[index] = snapshot
