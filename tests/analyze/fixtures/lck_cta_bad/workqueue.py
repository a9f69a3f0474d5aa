"""Lock-discipline fixture (bad): check-then-act across the lock (LCK004).

The work queue's dedupe race: ``submit`` reads the result cache *before*
taking the lock and, under the lock, branches on that stale read.  A job can
finish in between -- ``_finish`` puts its result, then drops the key from
``_active_by_key`` -- so ``submit`` sees neither a cached result nor an
active job and runs the job a second time.  ``hit`` is derived from the
same stale read and gates ``resubmit`` the same way.
"""

import threading


class DedupeQueue:
    def __init__(self, cache, clock):
        self._lock = threading.Lock()
        self._cache = cache
        self._clock = clock
        self._active_by_key = {}
        self._pending = []

    def submit(self, key, job):
        cached = self._cache.get(key)
        submitted = self._clock()
        with self._lock:
            if cached is not None:
                return cached
            active = self._active_by_key.get(key)
            if active is not None:
                return active
            self._active_by_key[key] = (job, submitted)
            self._pending.append(key)
            return job

    def resubmit(self, key, job):
        hit = self._cache.get(key) is not None
        with self._lock:
            if not hit:
                self._active_by_key[key] = (job, None)
                self._pending.append(key)
        return hit

    def _finish(self, key, result):
        self._cache.put(key, result)
        with self._lock:
            self._active_by_key.pop(key, None)
