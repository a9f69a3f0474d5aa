"""The rule engine: findings, the rule catalog, and the analysis driver.

A *rule family* is a module exposing ``check(project, config) -> findings``;
the engine loads the project once, runs every family, then splits the raw
findings three ways:

* **suppressed** -- a ``# repro: noqa[RULE]`` comment sits on the finding's
  line (kept in the report so suppressions stay visible, never silent),
* **baselined** -- the finding's fingerprint appears in the committed
  baseline file (pre-existing debt, tolerated but fenced: the baseline can
  only shrink),
* **active** -- everything else.  ``--strict`` fails on any active finding.

Fingerprints deliberately exclude line numbers: reformatting a file must not
churn the baseline, while changing the *substance* of a finding (its rule,
file, or message) must.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING
from collections.abc import Callable, Iterable

from repro.analyze.source import Project

if TYPE_CHECKING:
    from repro.analyze.baseline import Baseline

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Finding",
    "RULE_CATALOG",
    "RuleInfo",
    "analyze_project",
    "default_source_root",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining (line-number independent)."""
        payload = "\x00".join((self.rule, self.path, self.message))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """``path:line:col: RULE message`` -- the one-line text rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, Any]:
        """JSON-able rendering (what ``--format json`` emits)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry: what a rule checks and why (see docs/static_analysis.md)."""

    id: str
    summary: str
    rationale: str


#: Every rule the analyzer knows, in catalog order.
RULE_CATALOG: tuple[RuleInfo, ...] = (
    RuleInfo(
        "DET001",
        "unseeded RNG in deterministic code",
        "an RNG drawing fresh OS entropy (np.random.default_rng() with no "
        "seed, the legacy numpy global RNG, stdlib random) makes results "
        "irreproducible and poisons content-addressed caching",
    ),
    RuleInfo(
        "DET002",
        "wall-clock read in deterministic code",
        "time.time()/datetime.now() reachable from task code folds the "
        "current time into results that are cached by parameters alone",
    ),
    RuleInfo(
        "DET003",
        "unordered iteration feeding deterministic output",
        "set iteration order varies across processes (str hash "
        "randomization); iterate sorted(...) instead.  json.dumps without "
        "sort_keys=True serializes dict insertion order, not content",
    ),
    RuleInfo(
        "DET004",
        "ad-hoc float accumulation across chunk boundaries",
        "float addition is not associative: accumulating per-chunk/segment "
        "float statistics outside the blessed accumulator types breaks the "
        "chunk-size-invariance and parallel-merge bit-identity contracts",
    ),
    RuleInfo(
        "CKS001",
        "task parameter unaccounted for in JobSpec.key",
        "a parameter that does not flow into the cache key lets two "
        "different jobs collide on one cached result",
    ),
    RuleInfo(
        "CKS002",
        "file-content parameter without content-hash folding",
        "a parameter naming external file content must fold the *content* "
        "digest into JobSpec.key (like workload does) or be annotated "
        "'# repro: key-irrelevant'; keying on the path string alone replays "
        "stale results after the file is regenerated",
    ),
    RuleInfo(
        "CKS003",
        "JobSpec.key identity is structurally incomplete",
        "the key property must hash the full params mapping and the code "
        "version; dropping either silently aliases distinct jobs",
    ),
    RuleInfo(
        "LCK001",
        "unguarded write to a lock-guarded attribute",
        "an attribute written under the instance lock anywhere is shared "
        "state; writing it without the lock races the guarded writers",
    ),
    RuleInfo(
        "LCK002",
        "unguarded read of a lock-guarded attribute",
        "reads of guarded mutable state outside the lock observe torn or "
        "stale values (the PR 8 cache clear() race was this shape)",
    ),
    RuleInfo(
        "LCK003",
        "callback invoked while holding the lock",
        "calling caller-supplied code (subscriber pushes, injected clocks, "
        "progress callbacks) with the lock held invites deadlock and "
        "unbounded critical sections; call it outside, or justify with a "
        "suppression",
    ),
    RuleInfo(
        "LCK004",
        "check-then-act across the lock boundary",
        "a value read from shared state before taking the lock can go stale "
        "before the lock is held; branching on it under the lock acts on a "
        "check another thread has already invalidated (the WorkQueue.submit "
        "dedupe race, a result-cache read before the lock, was this shape).  "
        "Re-read it under the lock",
    ),
)

_RULE_IDS = frozenset(info.id for info in RULE_CATALOG)


@dataclass
class AnalysisConfig:
    """Everything the rule families need to know about the tree under check."""

    root: Path
    #: Module whose ``JobSpec.key`` the cache-key pass models.
    spec_module: str = "repro.runtime.spec"
    #: Import-graph seeds of the deterministic zone (task/simulation code).
    #: When none of them exist in the project, every module is in the zone.
    deterministic_seeds: tuple[str, ...] = (
        "repro.runtime.tasks",
        "repro.analysis.experiments",
    )
    #: Modules exempt from the determinism zone even when reachable:
    #: observability and the executor fabric time *themselves* (monotonic
    #: clocks, cache bookkeeping), never the simulated results.
    deterministic_exempt: tuple[str, ...] = (
        "repro.telemetry",
        "repro.runtime.cache",
        "repro.runtime.progress",
        "repro.analyze",
    )
    #: Class names allowed to accumulate floats across chunk/segment
    #: boundaries (their merge rules are proven exact or explicitly ordered).
    blessed_accumulators: tuple[str, ...] = (
        "TraceStatisticsAccumulator",
        "TraceSummary",
        "HistogramSummary",
        "MetricsRegistry",
        "EnergyAccount",
    )

    def is_deterministic_exempt(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.deterministic_exempt
        )


@dataclass
class AnalysisReport:
    """The engine's full output for one run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    #: Baseline fingerprints that no longer match any finding (stale debt --
    #: the baseline should shrink to match).
    stale_baseline: list[str] = field(default_factory=list)
    n_modules: int = 0
    skipped: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No active findings and no stale baseline entries."""
        return not self.findings and not self.stale_baseline

    def summary(self) -> str:
        parts = [
            f"{self.n_modules} module(s) analyzed",
            f"{len(self.findings)} finding(s)",
            f"{len(self.suppressed)} suppressed",
            f"{len(self.baselined)} baselined",
        ]
        if self.stale_baseline:
            parts.append(f"{len(self.stale_baseline)} stale baseline entr(y/ies)")
        if self.skipped:
            parts.append(f"{len(self.skipped)} file(s) skipped (syntax error)")
        return ", ".join(parts)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able report (the CI artifact format)."""
        return {
            "schema": 1,
            "summary": {
                "modules": self.n_modules,
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [finding.as_dict() for finding in self.suppressed],
            "baselined": [finding.as_dict() for finding in self.baselined],
            "stale_baseline": list(self.stale_baseline),
            "skipped": list(self.skipped),
        }

    def render_text(self, verbose: bool = False) -> str:
        lines = [finding.format() for finding in self.findings]
        if verbose:
            lines.extend(f"{finding.format()} [suppressed]" for finding in self.suppressed)
            lines.extend(f"{finding.format()} [baselined]" for finding in self.baselined)
        for fingerprint in self.stale_baseline:
            lines.append(
                f"baseline entry {fingerprint} matches no current finding; "
                "remove it (repro analyze --update-baseline)"
            )
        lines.append(self.summary())
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def default_source_root() -> Path:
    """The source tree of the installed ``repro`` package (the ``src/`` dir)."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def _rule_families() -> tuple[Callable[[Project, AnalysisConfig], Iterable[Finding]], ...]:
    from repro.analyze import cachekey, determinism, locks

    return (determinism.check, cachekey.check, locks.check)


def analyze_project(
    root: Path | None = None,
    paths: list[Path] | None = None,
    baseline: Baseline | None = None,
    rules: frozenset[str] | None = None,
) -> AnalysisReport:
    """Run every rule family over the tree at ``root`` and split the results.

    Parameters
    ----------
    root:
        Source root (defaults to the installed package's ``src/``).
    paths:
        Optional explicit file list under ``root`` (the whole tree when
        omitted).  Note the cache-key and determinism passes always need the
        spec/tasks modules loaded to model the zone; partial path lists are
        for focused lock/determinism checks.
    baseline:
        Parsed baseline to match findings against.
    rules:
        Restrict to this subset of rule ids (all when ``None``).
    """
    config = AnalysisConfig(root=root if root is not None else default_source_root())
    project = Project.load(config.root, paths)
    raw: list[Finding] = []
    for family in _rule_families():
        raw.extend(family(project, config))
    if rules is not None:
        unknown = rules - _RULE_IDS
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        raw = [finding for finding in raw if finding.rule in rules]

    report = AnalysisReport(n_modules=len(project.modules), skipped=list(project.skipped))
    sources_by_path = {source.rel_path: source for source in project.modules.values()}
    matched_fingerprints: set[str] = set()
    for finding in sorted(raw, key=lambda finding: finding.sort_key):
        source = sources_by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.rule, finding.line):
            report.suppressed.append(finding)
        elif baseline is not None and finding.fingerprint in baseline.fingerprints:
            matched_fingerprints.add(finding.fingerprint)
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        report.stale_baseline = sorted(baseline.fingerprints - matched_fingerprints)
    return report
