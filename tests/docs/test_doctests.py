"""Run the public-surface doctests inside the tier-1 suite.

The runnable ``>>>`` examples in the public modules are part of the API
contract (docs/api.md renders them, and CI additionally runs pytest's
``--doctest-modules`` over the same list).  This test keeps them green from
a plain ``python -m pytest`` without any extra flags.
"""

import doctest
import importlib

import pytest

#: The public modules whose docstrings carry runnable examples.
DOCTEST_MODULES = (
    "repro",
    "repro.analysis.experiments",
    "repro.analysis.serialize",
    "repro.analysis.static_scaling",
    "repro.runtime.spec",
    "repro.runtime.cache",
    "repro.telemetry",
    "repro.telemetry.core",
    "repro.telemetry.metrics",
    "repro.telemetry.export",
    "repro.trace.stream",
    "repro.report",
    "repro.report.reference",
    "repro.report.builder",
)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctests -- keep its examples runnable"
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
