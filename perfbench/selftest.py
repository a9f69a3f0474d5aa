"""Self-test and expected-output recording for the benchmark (see ``run.py``).

``python3 perfbench/run.py --self-test`` runs every workload at the tiny
size, untraced and traced, and checks the result line's schema against
``BENCHMARK.json``, the output check at the recorded seed,
that the traced run's layer self times add up to its wall time and that the
named layers cover at least :data:`SPAN_COVERAGE_MIN` of it.

``python3 perfbench/run.py --record-expected SEED...`` re-records the output
digests in ``perfbench/expected.json`` (after a deliberate output change).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

import run as bench

SELF_TEST_SEED = 1
# Share of a traced CLI run's wall time that named layers (everything but the
# CLI's own glue code) must account for.
SPAN_COVERAGE_MIN = 0.90
# The layer self times of a traced run must add up to its wall time this closely.
SELF_SUM_TOLERANCE = 0.01


def validate(result: dict[str, Any], config: dict[str, Any], trace: int) -> list[str]:
    """Schema problems of one result line (empty when it is valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted {attempted!r}")
    if failed != 0:
        problems.append(f"failed {failed!r}")
    section = config["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric.get("unit") != wanted.get(name):
            problems.append(f"{name}: {metric}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def run() -> int:
    config = bench.load_config()
    failures = 0
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            result, details = bench.run_workload(workload, SELF_TEST_SEED, 1.0, trace, "tiny")
            problems = validate(result, config, trace)
            check = details["output_check"]
            if check["expected"] != "match":
                problems.append(f"output check at the recorded seed: {check['expected']}")
            if trace and workload in bench.CLI_WORKLOADS:
                coverage = result["metrics"].get("span_coverage", {}).get("value", 0.0)
                if coverage < SPAN_COVERAGE_MIN:
                    problems.append(f"span coverage {coverage:.3f} < {SPAN_COVERAGE_MIN}")
                if abs(details["self_sum_over_wall"] - 1.0) > SELF_SUM_TOLERANCE:
                    problems.append(
                        f"layer self times sum to {details['self_sum_over_wall']:.4f} x wall"
                    )
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {workload:<15} trace={trace}: {status}", file=sys.stderr)
            failures += bool(problems)
    print(json.dumps({"self_test_failures": failures}))
    return 1 if failures else 0


def record(seeds: list[int]) -> int:
    """Run every workload once per seed and size; store the output digests."""
    expected: dict[str, Any] = {"recorded_seeds": seeds}
    for size in ("full", "tiny"):
        expected[size] = {}
        for workload in bench.WORKLOADS:
            digests = expected[size][workload] = {}
            for seed in seeds:
                if workload == "serve-mixed":
                    outcome = bench.run_serve(size, seed, 0.0, False, {}, minimum=1)
                else:
                    outcome = bench.run_cli(workload, size, seed, 0.0, False, {}, 1.0, minimum=1)
                if outcome["failed"]:
                    print(f"record {workload} seed {seed}: {outcome['output_check']}",
                          file=sys.stderr)
                    return 1
                digests[str(seed)] = outcome["output_check"]["digest"]
                print(f"recorded {size} {workload} seed {seed}", file=sys.stderr)
    bench.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0
