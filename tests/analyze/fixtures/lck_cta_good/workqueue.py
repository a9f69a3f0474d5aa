"""Lock-discipline fixture (good): the race-free twins of ``lck_cta_bad``.

``submit`` keeps the fast unlocked cache read but, when the key is not
active either, re-reads the cache under the lock: a job puts its result
before it leaves ``_active_by_key``, so the second read sees it.
``resubmit`` reads the cache only while holding the lock.  A clock read
before the lock that gates nothing, and a configuration value that no
thread changes, are not checks.  The analyzer must report nothing.
"""

import threading


class DedupeQueue:
    def __init__(self, cache, clock, max_pending):
        self._lock = threading.Lock()
        self._cache = cache
        self._clock = clock
        self._max_pending = max_pending
        self._active_by_key = {}
        self._pending = []

    def submit(self, key, job):
        cached = self._cache.get(key)
        submitted = self._clock()
        limit = self._max_pending
        with self._lock:
            active = self._active_by_key.get(key)
            if active is None and cached is None:
                cached = self._cache.get(key)
            if cached is not None:
                return cached
            if active is not None:
                return active
            if len(self._pending) >= limit:
                raise RuntimeError("queue is full")
            self._active_by_key[key] = (job, submitted)
            self._pending.append(key)
            return job

    def resubmit(self, key, job):
        with self._lock:
            hit = self._cache.get(key) is not None
            if not hit:
                self._active_by_key[key] = (job, None)
                self._pending.append(key)
        return hit

    def _finish(self, key, result):
        self._cache.put(key, result)
        with self._lock:
            self._active_by_key.pop(key, None)
