"""Lock-discipline race detector (LCK001-LCK004): guarded state, callbacks, stale checks."""

from __future__ import annotations

from tests.analyze.conftest import analyze_fixture


def _lck(report):
    return [finding for finding in report.findings if finding.rule.startswith("LCK")]


def test_lck_bad_flags_every_rule():
    report = analyze_fixture("lck_bad")
    rules = [finding.rule for finding in _lck(report)]
    assert rules.count("LCK001") == 1  # unguarded ._jobs.pop in drop()
    assert rules.count("LCK002") == 1  # unguarded ._pending read in size()
    assert rules.count("LCK003") == 3  # callback + injected + channel under lock
    assert len(rules) == 5


def test_lck_bad_messages_name_the_shapes():
    report = analyze_fixture("lck_bad")
    by_rule = {}
    for finding in _lck(report):
        by_rule.setdefault(finding.rule, []).append(finding.message)
    assert any("'_jobs'" in message for message in by_rule["LCK001"])
    assert any("'_pending'" in message for message in by_rule["LCK002"])
    joined = " ".join(by_rule["LCK003"])
    assert "caller-supplied callable 'callback'" in joined
    assert "injected callable 'self._on_event'" in joined
    assert "channel method '.push(...)'" in joined


def test_lck_good_is_clean():
    """Locked helpers, *_locked convention, callbacks hoisted out: no findings."""
    report = analyze_fixture("lck_good")
    assert _lck(report) == []
    assert report.findings == []


def test_lck004_flags_reads_before_the_lock_that_gate_branches_under_it():
    report = analyze_fixture("lck_cta_bad")
    findings = _lck(report)
    assert [finding.rule for finding in findings] == ["LCK004", "LCK004"]
    submit, resubmit = findings
    # The cache read itself, and a value derived from one.
    assert "DedupeQueue.submit: 'cached' is read from 'self._cache'" in submit.message
    assert "DedupeQueue.resubmit: 'hit' is read from 'self._cache'" in resubmit.message
    assert report.findings == findings


def test_lck004_accepts_a_re_read_under_the_lock():
    """Double-checked re-read, read-under-lock, ungating and config reads: clean."""
    report = analyze_fixture("lck_cta_good")
    assert report.findings == []
