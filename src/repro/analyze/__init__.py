"""Invariant-aware static analysis for the repro codebase.

``repro.analyze`` checks, before anything runs, the three invariants the
runtime stakes its correctness on:

* **determinism** (DET*) -- task-reachable code must not consult OS entropy,
  the wall clock, or hash-randomized iteration order, and must accumulate
  floats only through the blessed order-safe accumulators;
* **cache-key soundness** (CKS*) -- every registered task parameter provably
  flows into ``JobSpec.key`` (with content-hash folding for file-backed
  parameters) or is annotated ``# repro: key-irrelevant``;
* **lock discipline** (LCK*) -- attributes guarded by an instance lock are
  never touched without it, foreign code is never invoked while the lock is
  held, and no branch under the lock rests on a read taken before it.

Run it with ``python -m repro analyze`` (see ``--list-rules``); suppress a
deliberate violation in place with ``# repro: noqa[RULE] reason`` and park
pre-existing debt in the committed baseline file.
"""

from repro.analyze.baseline import Baseline, default_baseline_path
from repro.analyze.engine import (
    RULE_CATALOG,
    AnalysisConfig,
    AnalysisReport,
    Finding,
    RuleInfo,
    analyze_project,
    default_source_root,
)
from repro.analyze.source import ModuleSource, Project

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "ModuleSource",
    "Project",
    "RULE_CATALOG",
    "RuleInfo",
    "analyze_project",
    "default_baseline_path",
    "default_source_root",
]
