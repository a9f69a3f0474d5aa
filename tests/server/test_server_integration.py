"""Live-socket integration tests: real TCP server, scripted fake execution.

The deterministic harness (gates + inline runner) runs under a genuine
:class:`ReproServer` accept loop, so these tests cover the full wire path --
concurrent clients, disconnect-mid-stream cancellation, quota enforcement --
without depending on simulation timing.  The final test swaps in the real
runner and proves the server's streamed result is byte-identical to a local
``run_experiment`` over the same cache key.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List

import pytest

from repro.analysis.experiments import EXPERIMENTS, accepted_kwargs, run_experiment
from repro.runtime.cache import ResultCache
from repro.runtime.workqueue import WorkQueue
from repro.server import server as server_module
from repro.server.client import ReproClient, ServerError
from repro.server.protocol import encode_message
from repro.server.server import ReproServer

from tests.server.conftest import Gate, gated_fn


def _wait_until(predicate: Callable[[], bool], timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("server never reached the expected state")
        time.sleep(0.01)


def test_ping_roundtrip(make_server):
    _, host, port = make_server()
    with ReproClient(host=host, port=port) as client:
        response = client.ping()
        assert response["ok"] and response["protocol"] == 1


def test_server_connections_disable_nagle(make_server, monkeypatch):
    """Small ``accepted``/``result`` writes must not wait on the client's delayed ACK."""
    nodelay: List[int] = []
    original_setup = server_module._Handler.setup

    def recording_setup(handler):
        original_setup(handler)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(server_module._Handler, "setup", recording_setup)
    _, host, port = make_server()
    with ReproClient(host=host, port=port) as client:
        client.ping()
    assert len(nodelay) == 1 and nodelay[0] != 0


def test_submit_streams_result_over_the_wire(make_server):
    _, host, port = make_server()
    with ReproClient(host=host, port=port) as client:
        accepted, terminal = client.submit_and_wait("dvs_run", {"x": 5})
        assert accepted["event"] == "accepted" and not accepted["deduped"]
        assert terminal["event"] == "result"
        assert terminal["result"]["echo"] == {"x": 5}


def test_unknown_task_raises_server_error(make_server):
    _, host, port = make_server()
    with ReproClient(host=host, port=port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.submit_and_wait("no_such_task", {})
        assert excinfo.value.code == "unknown_task"


def test_concurrent_duplicate_submissions_execute_once(make_server):
    gate = Gate()
    server, host, port = make_server(gated_fn(gate), n_workers=2)
    barrier = threading.Barrier(2)
    outcomes: List[Dict[str, Any]] = [{}, {}]

    def submit(index: int) -> None:
        with ReproClient(host=host, port=port) as client:
            barrier.wait(timeout=10)
            events = list(client.submit("dvs_run", {"x": 42}))
            outcomes[index] = {"accepted": events[0], "terminal": events[-1]}

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    # Hold the gate until the second submission has attached to the first
    # job, then let the single execution proceed.
    _wait_until(lambda: server.queue.stats()["deduped"] == 1)
    gate.release.set()
    for thread in threads:
        thread.join(timeout=15)
        assert not thread.is_alive(), "client thread hung"

    first, second = outcomes
    assert first["accepted"]["job"] == second["accepted"]["job"]
    assert first["accepted"]["key"] == second["accepted"]["key"]
    # Both clients receive the exact same result bytes.
    assert encode_message(first["terminal"]) == encode_message(second["terminal"])
    stats = server.queue.stats()
    assert stats["executed"] == 1 and stats["deduped"] == 1 and stats["cache_hits"] == 0


def test_client_disconnect_mid_stream_cancels_job(make_server):
    gate = Gate()
    server, host, port = make_server(gated_fn(gate), n_workers=1)
    raw = socket.create_connection((host, port), timeout=10)
    raw.sendall(encode_message({"op": "submit", "task": "dvs_run", "params": {"x": 1}}))
    gate.wait_started(timeout=10)
    raw.close()  # vanish mid-stream, without a cancel message
    queue = server.queue
    _wait_until(lambda: queue.stats()["cancelled"] == 1 and queue.stats()["running"] == 0)
    # The worker slot was reclaimed: a fresh client's job completes.
    gate.release.set()
    with ReproClient(host=host, port=port) as client:
        _, terminal = client.submit_and_wait("dvs_run", {"x": 2})
        assert terminal["event"] == "result"


def test_quota_enforced_per_client_over_the_wire(make_server):
    gate = Gate()
    _, host, port = make_server(gated_fn(gate), n_workers=1, quota=1)
    with ReproClient(host=host, port=port) as holder, ReproClient(host=host, port=port) as spare:
        first = holder.request(
            {
                "op": "submit",
                "task": "dvs_run",
                "params": {"x": 1},
                "client": "shared",
                "stream": False,
            }
        )
        assert first["event"] == "accepted"
        gate.wait_started(timeout=10)
        with pytest.raises(ServerError) as excinfo:
            spare.request(
                {
                    "op": "submit",
                    "task": "dvs_run",
                    "params": {"x": 2},
                    "client": "shared",
                    "stream": False,
                }
            )
        assert excinfo.value.code == "quota_exceeded"
        gate.release.set()


def test_cancel_over_the_wire_frees_the_slot(make_server):
    gate = Gate()
    server, host, port = make_server(gated_fn(gate), n_workers=1)
    with ReproClient(host=host, port=port) as control:
        accepted = control.request(
            {"op": "submit", "task": "dvs_run", "params": {"x": 1}, "stream": False}
        )
        gate.wait_started(timeout=10)
        assert control.cancel(accepted["job"])
        queue = server.queue
        _wait_until(lambda: queue.status(accepted["job"])["state"] == "cancelled")
        assert queue.stats()["running"] == 0


def test_server_result_is_byte_identical_to_local_run(tmp_path):
    """The ISSUE acceptance bar: same key, same bytes as ``run_experiment``."""
    definition = EXPERIMENTS["table1"]
    kwargs = accepted_kwargs(definition.runner, {"seed": 2005, "n_cycles": 20_000})
    spec = definition.job(**kwargs)

    local_cache = ResultCache(tmp_path / "local")
    record, local_text = run_experiment("table1", cache=local_cache, **kwargs)
    assert local_cache.get(spec.key) is not None  # same cache key as the server path

    queue = WorkQueue(n_workers=1, cache=ResultCache(tmp_path / "server"))
    with ReproServer(queue, port=0).start() as server:
        host, port = server.address
        with ReproClient(host=host, port=port) as client:
            accepted, terminal = client.submit_and_wait(spec.task, dict(spec.params))
            assert accepted["key"] == spec.key
            assert terminal["event"] == "result" and not terminal["cached"]
            assert terminal["result"]["text"] == local_text
            # Resubmission is served straight from the shared result cache.
            again, cached_terminal = client.submit_and_wait(spec.task, dict(spec.params))
            assert again["cached"]
            assert cached_terminal["result"]["text"] == local_text
        server.request_shutdown(drain=False)
    assert server.join(timeout=10)


def test_shutdown_with_drain_completes_backlog(make_server):
    gate = Gate()
    server, host, port = make_server(gated_fn(gate), n_workers=1)
    with ReproClient(host=host, port=port) as client:
        accepted = client.request(
            {"op": "submit", "task": "dvs_run", "params": {"x": 1}, "stream": False}
        )
        gate.wait_started(timeout=10)
        gate.release.set()
        client.shutdown(drain=True)
    assert server.join(timeout=10)
    assert server.queue.status(accepted["job"])["state"] == "done"
