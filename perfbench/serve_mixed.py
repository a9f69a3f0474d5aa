"""The ``serve-mixed`` workload: a ``repro serve`` process under a closed loop.

One *session* spawns ``repro serve --jobs 2`` on a free port with a fresh
result cache, waits until ``ping`` is answered, and drives it from two client
connections.  Each client sends its next ``submit`` only after the previous
one reached its terminal event (a closed loop of two callers).  The seeded
plan submits small ``table1`` jobs in which one key in four is fresh and the
rest repeat earlier keys, so cache hits, in-flight dedupes and fresh
executions -- and cache writes beside cache reads -- all occur (see
:class:`Plan`).  After the
plan the session reads the ``stats`` op and shuts the server down (draining).

The client speaks the documented JSON-lines protocol over a plain socket, as
any external client would, so the measurement depends on the wire protocol
only and not on the program's client module.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

TERMINAL_EVENTS = ("result", "error", "cancelled")
BANNER = re.compile(rb"job server on ([0-9.]+):(\d+)")


@dataclass(frozen=True)
class Plan:
    """The seeded submit sequence of one session (identical for every session).

    Every fourth submit carries a fresh key; the others repeat a key drawn
    from the earlier ones, which is still in flight (a dedupe) or already
    cached (a hit).  The fresh submits all fall to the first client, so at
    most one fresh job waits at a time: when both clients could submit fresh
    keys, whether the server batched two of them into one worker dispatch
    depended on timing, and the latency tail moved by a quarter between runs.
    """

    n_cycles: int
    job_seeds: tuple[int, ...]  # one entry per submit; repeats are repeated keys

    @classmethod
    def make(cls, seed: int, n_submits: int, n_fresh: int, n_cycles: int) -> Plan:
        rng = random.Random(f"serve-mixed:{seed}")
        pool = rng.sample(range(1, 1_000_000), n_fresh)
        stride = n_submits // n_fresh
        keys: list[int] = []
        order: list[int] = []
        for index in range(n_submits):
            if index % stride == 0 and len(keys) < n_fresh:
                keys.append(pool[len(keys)])
                order.append(keys[-1])
            else:
                order.append(keys[rng.randrange(len(keys))])
        return cls(n_cycles=n_cycles, job_seeds=tuple(order))

    def params(self, job_seed: int) -> dict[str, Any]:
        return {"identifier": "table1", "n_cycles": self.n_cycles, "seed": job_seed}


@dataclass
class Submit:
    job_seed: int
    sent_ns: int = 0
    accepted_ns: int = 0
    done_ns: int = 0
    tier: str = ""  # cached / deduped / fresh
    result_digest: str = ""
    error: str = ""


@dataclass
class Session:
    spawn_ns: int = 0
    ready_ns: int = 0
    shutdown_ns: int = 0
    exit_ns: int = 0
    exit_code: int | None = None
    peak_rss_mb: float = 0.0
    stats: dict[str, Any] = field(default_factory=dict)
    submits: list[Submit] = field(default_factory=list)
    report: dict[str, Any] = field(default_factory=dict)
    error: str = ""


class _Connection:
    def __init__(self, port: int, timeout: float) -> None:
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._reader = self._socket.makefile("rb")

    def send(self, message: dict[str, Any]) -> None:
        self._socket.sendall(json.dumps(message, sort_keys=True).encode() + b"\n")

    def read(self) -> dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        self.send(message)
        return self.read()

    def close(self) -> None:
        self._reader.close()
        self._socket.close()


def _submit(connection: _Connection, plan: Plan, record: Submit) -> None:
    record.sent_ns = time.monotonic_ns()
    connection.send({"op": "submit", "task": "experiment", "params": plan.params(record.job_seed),
                     "stream": True})
    accepted = connection.read()
    record.accepted_ns = time.monotonic_ns()
    if accepted.get("ok") is False:
        record.error = f"refused: {accepted.get('error')}"
        record.done_ns = record.accepted_ns
        return
    record.tier = (
        "cached" if accepted.get("cached") else "deduped" if accepted.get("deduped") else "fresh"
    )
    while True:
        event = connection.read()
        if event.get("event") in TERMINAL_EVENTS:
            break
    record.done_ns = time.monotonic_ns()
    if event["event"] != "result":
        record.error = f"{event['event']}: {event.get('error')}"
        return
    canonical = json.dumps(event["result"], sort_keys=True, separators=(",", ":"))
    record.result_digest = hashlib.sha256(canonical.encode()).hexdigest()


def _client(port: int, plan: Plan, records: list[Submit], timeout: float) -> None:
    connection = _Connection(port, timeout)
    try:
        for record in records:
            _submit(connection, plan, record)
    except (OSError, ValueError, KeyError) as error:
        for record in records:
            if not record.done_ns:
                record.error = f"client: {type(error).__name__}: {error}"
    finally:
        connection.close()


def _wait_for_port(stderr_path: Path, child: Any, deadline: float) -> int:
    while time.monotonic() < deadline:
        match = BANNER.search(stderr_path.read_bytes()) if stderr_path.exists() else None
        if match:
            return int(match.group(2))
        if child.poll_exited():
            raise RuntimeError("server exited before listening")
        time.sleep(0.002)
    raise TimeoutError("server did not start listening")


def run_session(spawn: Callable[[list[str]], Any], work: Path, plan: Plan,
                timeout: float) -> Session:
    """One server lifetime driven by the plan; never raises for server faults.

    ``spawn(cli_argv)`` starts the server command and returns the benchmark's
    child-process handle.
    """
    session = Session()
    cache_dir = work / "serve-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    child = spawn(["--cache-dir", str(cache_dir), "serve", "--port", "0", "--jobs", "2"])
    session.spawn_ns = child.spawn_ns
    deadline = time.monotonic() + timeout
    control: _Connection | None = None
    try:
        port = _wait_for_port(child.stderr_path, child, deadline)
        control = _Connection(port, timeout)
        if control.request({"op": "ping"}).get("ok") is not True:
            raise RuntimeError("ping refused")
        session.ready_ns = time.monotonic_ns()
        session.submits = [Submit(job_seed) for job_seed in plan.job_seeds]
        clients = [
            threading.Thread(
                target=_client, args=(port, plan, session.submits[lane::2], timeout), daemon=True
            )
            for lane in range(2)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in clients):
            raise TimeoutError("clients did not finish")
        session.stats = control.request({"op": "stats"}).get("stats", {})
        session.shutdown_ns = time.monotonic_ns()
        control.request({"op": "shutdown", "drain": True})
    except (OSError, ValueError, RuntimeError) as error:
        session.error = f"{type(error).__name__}: {error}"
        child.kill()
    finally:
        if control is not None:
            control.close()
        outcome = child.wait(max(1.0, deadline - time.monotonic()))
        session.exit_ns = outcome.exit_ns
        session.exit_code = outcome.exit_code
        session.report = outcome.report
        worker_kb = sum(outcome.report.get("worker_peak_rss_kb", []))
        session.peak_rss_mb = (outcome.peak_rss_kb + worker_kb) / 1024
        shutil.rmtree(cache_dir, ignore_errors=True)
    if not session.error and session.exit_code != 0:
        session.error = f"server exited with {session.exit_code}"
    return session
