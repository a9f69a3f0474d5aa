"""Shared fixtures for the experiment-driver tests."""

import pytest

from repro.bus import CharacterizedBus


@pytest.fixture()
def analyze_calls(monkeypatch):
    """Every trace handed to ``CharacterizedBus.analyze`` while the test runs."""
    calls = []
    original = CharacterizedBus.analyze

    def counting_analyze(self, trace, *args, **kwargs):
        calls.append(trace)
        return original(self, trace, *args, **kwargs)

    monkeypatch.setattr(CharacterizedBus, "analyze", counting_analyze)
    return calls
