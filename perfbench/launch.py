"""Child process of the benchmark: runs the real ``repro`` CLI and reports on it.

Usage::

    python3 perfbench/launch.py --out REPORT.json [--trace] [--server] -- <repro CLI args>
    python3 perfbench/launch.py --out REPORT.json --cutoff CYCLES SEED

The launcher imports ``repro.cli`` from the checkout's ``src/``, stamps the
moment the import finished (the CLI is then ready to work), calls
``repro.cli.main`` with the given arguments and writes a JSON report:
timestamps on the system-wide monotonic clock (comparable with the parent's),
the exit code, peak RSS and -- with ``--trace`` -- the per-layer span totals
of :mod:`layers`.  ``--cutoff`` runs the truncated Table 1 pipelines of
:mod:`cutoff` instead of the CLI.
"""

from __future__ import annotations

import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _watch_worker_peaks(peaks: dict[int, int]) -> None:
    """Record each worker's peak RSS just before the work queue closes.

    The queue's workers are child processes of the server; their high-water
    marks are read while they are still alive, so the server's footprint can
    be reported as the server plus every worker, not just the largest one.
    """
    from repro.runtime import workqueue

    original = workqueue.WorkQueue.close

    def close(self, *args, **kwargs):
        for child in multiprocessing.active_children():
            peaks[child.pid] = max(peaks.get(child.pid, 0), _vm_hwm_kb(child.pid))
        return original(self, *args, **kwargs)

    workqueue.WorkQueue.close = close


def _run_cli(argv: list[str], traced: bool, server: bool, report: dict) -> int:
    import repro.cli

    report["ready_ns"] = time.monotonic_ns()
    worker_peaks: dict[int, int] = {}
    if server:
        _watch_worker_peaks(worker_peaks)
    recorder = None
    if traced:
        import layers

        recorder = layers.Recorder()
        report["wrapped"] = layers.install(recorder)
        recorder.enter(layers.ROOT_LAYER)
    report["main_start_ns"] = time.monotonic_ns()
    try:
        code = repro.cli.main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        report["main_end_ns"] = time.monotonic_ns()
        if recorder is not None:
            recorder.exit()
            report["spans"] = recorder.summary()
    report["worker_peak_rss_kb"] = sorted(worker_peaks.values())
    return int(code or 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--server", action="store_true", help="also report worker peak RSS")
    parser.add_argument("--cutoff", nargs=2, type=int, metavar=("CYCLES", "SEED"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    report: dict = {"started_ns": STARTED_NS}
    if args.cutoff is not None:
        import cutoff

        report["cutoff"] = cutoff.run(*args.cutoff)
        code = 0
    else:
        code = _run_cli(argv, args.trace, args.server, report)
    sys.stdout.flush()
    report["exit_code"] = code
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["children_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["end_ns"] = time.monotonic_ns()
    args.out.write_text(json.dumps(report, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
