"""Cache-key fixture (good): the shape the real ``repro.runtime.spec`` uses.

A blanket fold of the whole params mapping, the code version, the task name,
and content-fingerprint folding for the one parameter that names an external
file (mirroring the real workload fold).
"""

import hashlib
import json

__version__ = "fixture-1"


def _content_fingerprint(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class JobSpec:
    def __init__(self, task, params):
        self.task = task
        self.params = params

    @property
    def key(self):
        identity = {
            "task": self.task,
            "version": __version__,
            "params": dict(self.params),
        }
        workload = self.params.get("workload")
        if workload is not None:
            identity["workload_fingerprint"] = _content_fingerprint(workload)
        blob = json.dumps(identity, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
