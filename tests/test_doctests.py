"""Run the documentation examples embedded in docstrings."""

import doctest

import pytest

import repro.analysis.tables
import repro.core.bounds
import repro.core.rate_rule
import repro.faults.hashing

MODULES = [
    repro.core.rate_rule,
    repro.core.bounds,
    repro.analysis.tables,
    repro.faults.hashing,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module}"
    assert results.attempted > 0, f"no doctests found in {module}"
