"""The benchmark of record for ``repro``: four workloads through the real CLI and server.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-expected 0 1 2 ...

``--trace 0`` measures the end-to-end metrics with nothing attached to the
program.  ``--trace 1`` alternates untraced runs with runs in which
:mod:`layers` wraps every layer's public entry points, and reports per-layer
busy/self times and counts, the span coverage and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details (provenance, per-layer table, fidelity) and is also written to
``.perfbench-work/results/``.  See ``perfbench/README.md`` for why each
workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import serve_mixed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench-work"
EXPECTED_PATH = BENCH_DIR / "expected.json"
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CliWorkload:
    """One ``repro run <experiment>`` command, sized per benchmark size."""

    experiment: str
    cycles: dict[str, int]  # per size ("full", "tiny")
    traces: int  # distinct traces the experiment evaluates
    corners: int  # PVT corners each trace is evaluated at
    table_rows: tuple[int, ...]  # data rows expected in each printed table

    def argv(self, size: str, seed: int) -> list[str]:
        return ["--no-cache", "--cycles", str(self.cycles[size]), "run", self.experiment,
                "--seed", str(seed)]

    def bus_cycles(self, size: str) -> int:
        """Bus cycles evaluated: trace cycles x traces x corners."""
        return self.cycles[size] * self.traces * self.corners


CLI_WORKLOADS = {
    # The paper's headline path: streamed generation, block-kernel
    # classification and controller replay, 10 benchmarks x 2 corners.
    "table1-stream": CliWorkload("table1", {"full": 400_000, "tiny": 4_000}, 10, 2, (11, 11)),
    # Static voltage sweeps over 5 corners on an in-memory suite: the scalar
    # classifier and repeated characterization, never the block kernels.
    "static-corners": CliWorkload("fig5", {"full": 12_000, "tiny": 2_000}, 10, 5, (5,)),
    # 7 executed mini-CPU kernels beside the synthetic suite: the CPU
    # interpreter dominates, the other layers do little.
    "cpu-kernels": CliWorkload("table1_kernels", {"full": 30_000, "tiny": 3_000}, 17, 2,
                               (18, 18)),
}

# serve-mixed: submits per session, fresh keys among them, cycles per job.
SERVE_SIZES = {
    "full": {"submits": 64, "fresh": 16, "cycles": 20_000, "min_sessions": 2},
    "tiny": {"submits": 8, "fresh": 2, "cycles": 2_000, "min_sessions": 1},
}
SERVE_BENCHMARKS_PER_JOB = 10
SERVE_CORNERS_PER_JOB = 2

WORKLOADS = (*CLI_WORKLOADS, "serve-mixed")
MIN_ITERATIONS = {"full": 3, "tiny": 1}


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    exit_ns: int
    exit_code: int
    peak_rss_kb: int
    report: dict[str, Any]
    stdout: bytes
    stderr: bytes


class Child:
    """One launcher process whose exit is reaped with its own rusage.

    ``launcher_args`` are the arguments of ``launch.py`` after ``--out``;
    :func:`cli_args` builds them for a ``repro`` command.  Each child leads
    its own process group, so killing it also kills the server's workers.
    """

    live: set[Child] = set()  # started and not yet reaped, killed on exit

    def __init__(self, launcher_args: list[str], tag: str) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.report_path = WORK / f"{tag}.report.json"
        self.stdout_path = WORK / f"{tag}.stdout"
        self.stderr_path = WORK / f"{tag}.stderr"
        self.report_path.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH_DIR / "launch.py"), "--out", str(self.report_path),
                   *launcher_args]
        env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHONPATH"))}
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.spawn_ns = time.monotonic_ns()
            self._process = subprocess.Popen(
                command, cwd=ROOT, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
                start_new_session=True,
            )
        Child.live.add(self)

    def poll_exited(self) -> bool:
        result = os.waitid(os.P_PID, self._process.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return result is not None

    def kill(self) -> None:
        try:
            os.killpg(self._process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> Outcome:
        watchdog = threading.Timer(timeout, self.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self._process.pid, 0)
        finally:
            watchdog.cancel()
        exit_ns = time.monotonic_ns()
        Child.live.discard(self)
        code = os.waitstatus_to_exitcode(status)
        self._process.returncode = code
        try:
            report = json.loads(self.report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
        return Outcome(
            exit_ns=exit_ns,
            exit_code=code,
            peak_rss_kb=int(usage.ru_maxrss),
            report=report,
            stdout=self.stdout_path.read_bytes(),
            stderr=self.stderr_path.read_bytes(),
        )


def cli_args(cli_argv: list[str], traced: bool = False, server: bool = False) -> list[str]:
    return [*(["--trace"] if traced else []), *(["--server"] if server else []), "--", *cli_argv]


# ---------------------------------------------------------------------- #
# Statistics helpers
# ---------------------------------------------------------------------- #
def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of every order statistic, with Beta((n+1)p, (n+1)(1-p))
    weights.  Far steadier than a single order statistic when few samples
    lie beyond the percentile -- the case for the per-command latencies of
    the CLI workloads -- and equal to it in the limit of many samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return float(ordered[0]) if ordered else 0.0
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint-rule steps per order statistic's interval

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [
        sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) for i in range(n)
    ]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #
def _tables(text: str) -> list[list[list[str]]]:
    """Data rows of every fixed-width table (rows between the dashes and a blank)."""
    tables: list[list[list[str]]] = []
    current: list[list[str]] | None = None
    for line in text.splitlines():
        if re.fullmatch(r"[- ]+", line) and "--" in line:
            current = []
            tables.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            current.append(re.split(r"\s{2,}", line.strip()))
    return tables


def check_cli_output(workload: CliWorkload, stdout: bytes) -> str:
    """Empty when the printed tables have the expected shape and numbers."""
    tables = _tables(stdout.decode("utf-8", errors="replace"))
    rows = tuple(len(table) for table in tables)
    if rows != workload.table_rows:
        return f"expected table rows {workload.table_rows}, got {rows}"
    for table in tables:
        for row in table:
            try:
                numbers = [float(cell) for cell in row[1:]]
            except ValueError:
                return f"non-numeric cell in row {row}"
            if not numbers or any(not (-1e6 < n < 1e6) for n in numbers):
                return f"implausible row {row}"
    return ""


def load_expected() -> dict[str, Any]:
    try:
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def expected_digest(expected: dict[str, Any], size: str, workload: str, seed: int) -> str | None:
    return expected.get(size, {}).get(workload, {}).get(str(seed))


def serve_digest(key_digests: dict[int, str]) -> str:
    """One digest over every key's first response, in key order."""
    return sha256(json.dumps(sorted(key_digests.items())).encode())


# ---------------------------------------------------------------------- #
# CLI workloads
# ---------------------------------------------------------------------- #
@dataclass
class Iteration:
    traced: bool
    ok: bool
    why: str
    spawn_ns: int
    exit_ns: int
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    digest: str
    report: dict[str, Any] = field(default_factory=dict)
    stdout: bytes = b""


def run_cli_once(workload: CliWorkload, size: str, seed: int, traced: bool) -> Iteration:
    child = Child(cli_args(workload.argv(size, seed), traced), tag="cli")
    outcome = child.wait()
    report = outcome.report
    ready_ns = report.get("ready_ns", outcome.exit_ns)
    why = ""
    if outcome.exit_code != 0:
        why = f"exit code {outcome.exit_code}: {outcome.stderr[-400:].decode(errors='replace')}"
    elif not report:
        why = "launcher wrote no report"
    else:
        why = check_cli_output(workload, outcome.stdout)
    return Iteration(
        traced=traced,
        ok=not why,
        why=why,
        spawn_ns=child.spawn_ns,
        exit_ns=outcome.exit_ns,
        setup_s=(ready_ns - child.spawn_ns) / 1e9,
        wall_s=(outcome.exit_ns - child.spawn_ns) / 1e9,
        peak_rss_mb=outcome.peak_rss_kb / 1024,
        digest=sha256(outcome.stdout),
        report=report,
        stdout=outcome.stdout,
    )


def warm_up() -> None:
    """One unmeasured start of the CLI when the checkout has no bytecode yet.

    Compiling bytecode is a cost a user pays once, not on every command.
    """
    if not any((ROOT / "src" / "repro" / "__pycache__").glob("cli.*.pyc")):
        Child(cli_args(["list"]), tag="warmup").wait()


def repeat(run_one: Callable[[bool], Any], seconds: float, minimum: int, traced_mode: bool,
           duration: Callable[[Any], float]) -> list[Any]:
    """Run until another run would overshoot ``seconds`` (at least ``minimum`` runs).

    In traced mode runs alternate untraced / traced, ``minimum`` of each.
    """
    results: list[Any] = []
    started = time.monotonic()
    pattern = (False, True) if traced_mode else (False,)
    while True:
        for traced in pattern:
            results.append(run_one(traced))
        elapsed = time.monotonic() - started
        step = median([duration(r) for r in results]) * len(pattern)
        done = len(results) >= minimum * len(pattern) and elapsed + step > seconds
        if done or len(results) >= 200:
            return results


def cli_end_to_end(workload: CliWorkload, size: str, runs: list[Iteration]) -> dict[str, float]:
    walls = [r.wall_s for r in runs]
    return {
        "setup_s": median([r.setup_s for r in runs]),
        "wall_s": median(walls),
        "sim_cycles_per_s": median([workload.bus_cycles(size) / (r.wall_s - r.setup_s)
                                    for r in runs]),
        "peak_rss_mb": median([r.peak_rss_mb for r in runs]),
        "jobs_per_s": median([1.0 / w for w in walls]),
        "submit_p50_ms": percentile([w * 1e3 for w in walls], 50),
        "submit_p90_ms": percentile([w * 1e3 for w in walls], 90),
    }


def layer_breakdown(run: Iteration) -> dict[str, Any]:
    """Per-layer busy/self seconds of one traced run, summing to its wall time.

    ``startup`` (spawn to ``repro.cli`` imported), ``tracer`` (installing the
    wrappers) and ``exit`` (``main`` returned to process reaped) are measured
    from outside; every other layer comes from the spans, with ``cli``
    holding the CLI's own time outside any wrapped entry point.
    """
    report = run.report
    spans = report["spans"]
    layers = {name: dict(values) for name, values in spans["layers"].items()}
    edges = {
        "startup": (run.spawn_ns, report["ready_ns"]),
        "tracer": (report["ready_ns"], report["main_start_ns"]),
        "exit": (report["main_end_ns"], run.exit_ns),
    }
    for name, (start, end) in edges.items():
        seconds = (end - start) / 1e9
        layers[name] = {"busy_s": seconds, "self_s": seconds, "calls": 1}
    total_self = sum(layer["self_s"] for layer in layers.values())
    return {
        "layers": layers,
        "nested_s": spans["nested_s"],
        "counts": spans["counts"],
        "distinct_trace_cycles": spans["distinct_trace_cycles"],
        "self_sum_s": total_self,
        "span_coverage": (total_self - layers["cli"]["self_s"]) / run.wall_s,
    }


def _busy(breakdown: dict[str, Any], layer: str) -> float:
    return breakdown["layers"].get(layer, {}).get("busy_s", 0.0)


def cli_per_layer(runs: list[Iteration]) -> tuple[dict[str, float], list[dict[str, Any]]]:
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    breakdowns = [layer_breakdown(r) for r in traced]

    def per_run(b: dict[str, Any], run: Iteration) -> dict[str, float]:
        counts = b["counts"]
        nested = b["nested_s"].get("bus.classify_vectorized", {})
        distinct = b["distinct_trace_cycles"]
        return {
            "startup.import_s": b["layers"]["startup"]["busy_s"],
            "trace.busy_s": _busy(b, "trace"),
            "trace.self_s": b["layers"].get("trace", {}).get("self_s", 0.0),
            "trace.cycles": counts.get("trace.cycles", 0),
            "trace.bytes": counts.get("trace.bytes", 0),
            "cpu.busy_s": _busy(b, "cpu"),
            "cpu.cycles": counts.get("cpu.cycles", 0),
            "bus.characterize_busy_s": _busy(b, "bus.characterize"),
            "bus.characterize_count": b["layers"].get("bus.characterize", {}).get("calls", 0),
            "bus.classify_vectorized_busy_s": _busy(b, "bus.classify_vectorized")
            - nested.get("trace", 0.0),
            "bus.classify_scalar_busy_s": _busy(b, "bus.classify_scalar"),
            "bus.classify_per_trace_cycle": (
                counts.get("bus.classified_cycles", 0) / distinct if distinct else 0.0
            ),
            "interconnect.worst_coupling_busy_s": _busy(b, "interconnect.worst_coupling"),
            "interconnect.toggles_busy_s": _busy(b, "interconnect.toggles"),
            "interconnect.coupling_weights_busy_s": _busy(b, "interconnect.coupling_weights"),
            "interconnect.scalar_kernels_busy_s": _busy(b, "interconnect.scalar_kernels"),
            "core.replay_busy_s": _busy(b, "core.replay"),
            "core.replay_cycles": counts.get("core.replay_cycles", 0),
            "core.voltage_transitions": counts.get("core.voltage_transitions", 0),
            "core.fixed_vs_busy_s": _busy(b, "core.fixed_vs"),
            "analysis.static_eval_busy_s": _busy(b, "analysis.static_eval"),
            "analysis.voltage_points": counts.get("analysis.voltage_points", 0),
            "analysis.render_busy_s": _busy(b, "analysis.render"),
            "cli.self_s": b["layers"]["cli"]["self_s"],
            "span_coverage": b["span_coverage"],
            "traced_wall_s": run.wall_s,
        }

    rows = [per_run(b, r) for b, r in zip(breakdowns, traced)]
    metrics = {name: median([row[name] for row in rows]) for name in rows[0]}
    metrics["trace_overhead_frac"] = (
        median([r.wall_s for r in traced]) / median([r.wall_s for r in plain]) - 1.0
    )
    return metrics, breakdowns


def cutoff_check(size: str, seed: int, span_metrics: dict[str, float],
                 bound: float) -> tuple[dict[str, float], dict[str, Any]]:
    """Truncated-pipeline stage costs beside the span times they should match."""
    cycles = CLI_WORKLOADS["table1-stream"].cycles[size]
    child = Child(["--cutoff", str(cycles), str(seed)], tag="cutoff")
    finished = child.wait()
    outcome = finished.report.get("cutoff") or {
        "error": finished.stderr[-400:].decode(errors="replace")
    }
    detail: dict[str, Any] = dict(outcome)
    metrics: dict[str, float] = {}
    stages = outcome.get("stages_s")
    if not stages:
        metrics["cutoff.available"] = 0
        return metrics, detail
    differences = {
        "trace": stages["trace"],
        "classify": stages["classify"] - stages["trace"],
        "replay": stages["replay"] - stages["classify"],
        "render": stages["render"] - stages["replay"],
    }
    spans = {
        "trace": span_metrics["trace.busy_s"],
        "classify": span_metrics["bus.characterize_busy_s"]
        + span_metrics["bus.classify_vectorized_busy_s"],
        "replay": span_metrics["core.replay_busy_s"] + span_metrics["core.fixed_vs_busy_s"],
        "render": span_metrics["analysis.render_busy_s"],
    }
    full = stages["render"]
    flagged = [s for s in differences if abs(differences[s] - spans[s]) > bound * full]
    metrics["cutoff.available"] = 1
    for stage in differences:
        metrics[f"cutoff.{stage}_s"] = differences[stage]
        metrics[f"cutoff.{stage}_span_s"] = spans[stage]
    metrics["cutoff.flagged"] = len(flagged)
    detail.update({"differences_s": differences, "span_s": spans, "flagged": flagged,
                   "tolerance_s": bound * full})
    return metrics, detail


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #
def _session_s(session: serve_mixed.Session, start_ns: int, end_ns: int) -> float:
    return (end_ns - start_ns) / 1e9 if start_ns and end_ns else 0.0


def _in_flight_s(submits: list[serve_mixed.Submit]) -> float:
    """Length of the union of the submits' send-to-terminal intervals."""
    total = 0
    reach = 0
    for start, end in sorted((s.sent_ns, s.done_ns) for s in submits if s.done_ns):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total / 1e9


def serve_end_to_end(cycles: int, sessions: list[serve_mixed.Session]) -> dict[str, float]:
    good = [s for s in sessions if not s.error]
    latencies = [(x.done_ns - x.sent_ns) / 1e6 for s in good for x in s.submits if not x.error]
    job_cycles = cycles * SERVE_BENCHMARKS_PER_JOB * SERVE_CORNERS_PER_JOB
    return {
        "setup_s": median([_session_s(s, s.spawn_ns, s.ready_ns) for s in good]),
        "wall_s": median([_session_s(s, s.spawn_ns, s.exit_ns) for s in good]),
        "sim_cycles_per_s": median([
            s.stats.get("executed", 0) * job_cycles / _session_s(s, s.ready_ns, s.exit_ns)
            for s in good
        ]),
        "peak_rss_mb": median([s.peak_rss_mb for s in good]),
        "jobs_per_s": median([
            len(s.submits) / _session_s(s, min(x.sent_ns for x in s.submits),
                                        max(x.done_ns for x in s.submits))
            for s in good
        ]),
        "submit_p50_ms": percentile(latencies, 50),
        "submit_p90_ms": percentile(latencies, 90),
    }


def serve_per_layer(sessions: list[serve_mixed.Session]) -> dict[str, float]:
    traced = [s for s in sessions if s.report.get("spans") and not s.error]
    plain = [s for s in sessions if not s.report.get("spans") and not s.error]
    submits = [x for s in traced for x in s.submits if not x.error]
    n = len(traced)

    def tier(name: str) -> float:
        return sum(1 for x in submits if x.tier == name) / n

    def stat(name: str) -> int:
        return sum(int(s.stats.get(name, 0)) for s in traced)

    def server_busy(layer: str) -> float:
        return median([s.report["spans"]["layers"].get(layer, {}).get("busy_s", 0.0)
                       for s in traced])

    distinct_keys = sum(len({x.job_seed for x in s.submits}) for s in traced)
    walls = [_session_s(s, s.spawn_ns, s.exit_ns) for s in traced]
    coverage = [
        (_session_s(s, s.spawn_ns, s.ready_ns) + _in_flight_s(s.submits)
         + _session_s(s, s.shutdown_ns, s.exit_ns)) / wall
        for s, wall in zip(traced, walls)
    ]
    return {
        "startup.import_s": median([(s.report["ready_ns"] - s.spawn_ns) / 1e9 for s in traced]),
        "server.accept_ms_p50": percentile([(x.accepted_ns - x.sent_ns) / 1e6 for x in submits],
                                           50),
        "server.accept_ms_p90": percentile([(x.accepted_ns - x.sent_ns) / 1e6 for x in submits],
                                           90),
        "server.hit_ms_p50": percentile(
            [(x.done_ns - x.sent_ns) / 1e6 for x in submits if x.tier == "cached"], 50),
        "workqueue.run_ms_p50": percentile(
            [(x.done_ns - x.accepted_ns) / 1e6 for x in submits if x.tier == "fresh"], 50),
        "workqueue.tier_cached": tier("cached"),
        "workqueue.tier_deduped": tier("deduped"),
        "workqueue.tier_fresh": tier("fresh"),
        "workqueue.exec_per_key": stat("executed") / distinct_keys,
        "cache.hit_ratio": stat("cache_hits") / sum(len(s.submits) for s in traced),
        "server.stats_executed": stat("executed") / n,
        "server.stats_batches": stat("batches") / n,
        "workqueue.submit_busy_s": server_busy("workqueue.submit"),
        "runtime.cache_busy_s": server_busy("runtime.cache"),
        "span_coverage": median(coverage),
        "traced_wall_s": median(walls),
        "trace_overhead_frac": median(walls)
        / median([_session_s(s, s.spawn_ns, s.exit_ns) for s in plain]) - 1.0,
    }


def check_serve(sessions: list[serve_mixed.Session], plan: serve_mixed.Plan,
                expected: str | None) -> tuple[int, int, dict[str, Any]]:
    """Attempted and failed operations; every key's responses must be byte-identical."""
    first: dict[int, str] = {}
    attempted = failed = 0
    problems: list[str] = []
    for session in sessions:
        attempted += 1 + len(plan.job_seeds)
        if session.error:
            failed += 1
            problems.append(session.error)
        failed += len(plan.job_seeds) - len(session.submits)
        for submit in session.submits:
            if submit.error or not submit.result_digest:
                failed += 1
                problems.append(submit.error or "no result")
                continue
            reference = first.setdefault(submit.job_seed, submit.result_digest)
            if submit.result_digest != reference:
                failed += 1
                problems.append(f"job seed {submit.job_seed}: response differs from the first")
    digest = serve_digest(first)
    verdict = "unrecorded" if expected is None else "match" if digest == expected else "mismatch"
    if verdict == "mismatch":
        failed += 1
        problems.append("responses differ from the recorded digest")
    return attempted, failed, {"digest": digest, "expected": verdict, "problems": problems[:10]}


def run_serve(size: str, seed: int, seconds: float, traced_mode: bool,
              expected: dict[str, Any], minimum: int | None = None) -> dict[str, Any]:
    config = SERVE_SIZES[size]
    plan = serve_mixed.Plan.make(seed, config["submits"], config["fresh"], config["cycles"])

    def one(traced: bool) -> serve_mixed.Session:
        def spawn(argv: list[str]) -> Child:
            return Child(cli_args(argv, traced=traced, server=True), tag="serve")

        return serve_mixed.run_session(spawn, WORK, plan, CHILD_TIMEOUT_S)

    sessions = repeat(one, seconds, minimum or config["min_sessions"], traced_mode,
                      lambda s: max(0.0, _session_s(s, s.spawn_ns, s.exit_ns)))
    attempted, failed, check = check_serve(
        sessions, plan, expected_digest(expected, size, "serve-mixed", seed)
    )
    result: dict[str, Any] = {"attempted": attempted, "failed": failed, "output_check": check}
    if failed == 0:
        plain = [s for s in sessions if not s.report.get("spans")]
        result["end_to_end"] = serve_end_to_end(config["cycles"], plain)
        if traced_mode:
            result["per_layer"] = serve_per_layer(sessions)
    result["runs"] = len(sessions)
    return result


# ---------------------------------------------------------------------- #
# CLI workloads
# ---------------------------------------------------------------------- #
def run_cli(name: str, size: str, seed: int, seconds: float, traced_mode: bool,
            expected: dict[str, Any], bound: float, minimum: int | None = None
            ) -> dict[str, Any]:
    workload = CLI_WORKLOADS[name]
    warm_up()
    runs = repeat(lambda traced: run_cli_once(workload, size, seed, traced), seconds,
                  minimum or MIN_ITERATIONS[size], traced_mode, lambda r: r.wall_s)
    recorded = expected_digest(expected, size, name, seed)
    problems = []
    for run in runs:
        if run.ok and run.digest != runs[0].digest:
            run.ok, run.why = False, "stdout differs from the run's first iteration"
        if run.ok and recorded is not None and run.digest != recorded:
            run.ok, run.why = False, "stdout differs from the recorded digest"
        if not run.ok:
            problems.append(run.why)
    failed = sum(not run.ok for run in runs)
    verdict = ("unrecorded" if recorded is None
               else "match" if runs[0].digest == recorded else "mismatch")
    result: dict[str, Any] = {
        "attempted": len(runs),
        "failed": failed,
        "runs": len(runs),
        "output_check": {"digest": runs[0].digest, "expected": verdict, "problems": problems[:10]},
    }
    if failed:
        return result
    result["end_to_end"] = cli_end_to_end(workload, size, [r for r in runs if not r.traced])
    if traced_mode:
        per_layer, breakdowns = cli_per_layer(runs)
        result["per_layer"] = per_layer
        result["layers"] = breakdowns[0]["layers"]
        result["self_sum_over_wall"] = median(
            [b["self_sum_s"] / r.wall_s for b, r in zip(breakdowns, [r for r in runs if r.traced])]
        )
        if name == "table1-stream":
            cut_metrics, cut_detail = cutoff_check(size, seed, per_layer, bound)
            result["per_layer"].update(cut_metrics)
            result["cutoff"] = cut_detail
    if name == "table1-stream":
        result["fidelity"] = table1_fidelity(runs[0].stdout)
    return result


# ---------------------------------------------------------------------- #
# Provenance and fidelity
# ---------------------------------------------------------------------- #
def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """Content digest of ``src/`` -- the code version when there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, trace: int, seconds: float) -> dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_commit": _git_commit(),
        "src_digest": _source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
        },
    }


FIDELITY_COLUMNS = {
    "fixed_vs_gain_percent": 1,
    "dvs_gain_percent": 2,
    "dvs_average_error_rate_percent": 3,
}


def table1_fidelity(stdout: bytes) -> list[dict[str, Any]]:
    """Table 1 totals of this (scaled-down) run next to the paper's values.

    Informational only: the run uses far fewer cycles than the paper's 10 M.
    """
    totals = [row for table in _tables(stdout.decode()) for row in table if row[0] == "Total"]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.report.reference import PAPER_REFERENCES
    except ImportError as error:
        return [{"error": str(error)}]
    rows = []
    for reference in PAPER_REFERENCES.for_experiment("table1"):
        match = re.fullmatch(r"corners\.(\d+)\.totals\.(\w+)", reference.metric)
        if match is None or match.group(2) not in FIDELITY_COLUMNS:
            continue
        corner = int(match.group(1))
        measured = float(totals[corner][FIDELITY_COLUMNS[match.group(2)]])
        rows.append({"metric": reference.metric, "measured": measured,
                     "paper": reference.paper_value, "unit": reference.unit})
    return rows


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def load_config() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str = "full"
                 ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Measure one workload; returns (the result line, the details)."""
    config = load_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    expected = load_expected()
    if name == "serve-mixed":
        outcome = run_serve(size, seed, seconds, bool(trace), expected)
    else:
        outcome = run_cli(name, size, seed, seconds, bool(trace), expected, bounds["wall_s"])
    section = "per_layer" if trace else "end_to_end"
    values: dict[str, float] = {m["name"]: 0.0 for m in config["per_layer"]} if trace else {}
    values.update(outcome.get(section, {}))
    units = {m["name"]: m["unit"] for m in config[section]}
    correct = outcome["failed"] == 0 and outcome["output_check"]["expected"] != "mismatch"
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units if metric in values
        } if correct else {},
    }
    details = {
        "provenance": provenance(name, seed, trace, seconds),
        "failed_frac": outcome["failed"] / outcome["attempted"],
        **{k: v for k, v in outcome.items() if k not in ("attempted", "failed")},
    }
    return result, details


def emit(result: dict[str, Any], details: dict[str, Any]) -> None:
    provenance_ = details["provenance"]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{provenance_['workload']}-seed{provenance_['seed']}-trace{provenance_['trace']}"
    record = {"result": result, "details": details}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({"perfbench_details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size, untraced and traced, and "
                        "validate the result schema, the output check and the span coverage")
    parser.add_argument("--record-expected", type=int, nargs="+", metavar="SEED",
                        help="rewrite perfbench/expected.json with output digests at SEEDs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.run()
    if args.record_expected:
        import selftest

        return selftest.record(args.record_expected)
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    emit(result, details)
    return 0 if result["correct"] else 1


def _stop_children() -> None:
    for child in list(Child.live):
        child.kill()
        child.wait()


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    finally:
        _stop_children()
    sys.exit(code)
