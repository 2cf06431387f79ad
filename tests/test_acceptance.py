"""Acceptance gate: the ten end-to-end criteria, one pass/fail line each.

The suite runs once per session; each test prints its criterion's verdict
line and asserts it. Run with -s (or look at captured output on failure)
to see the lines.
"""
import re

import pytest

from localaut.acceptance import run_all


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(seed=0)}


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.line()


def test_details_carry_no_timings(results):
    """Timings vary run to run, so they stay out of the digested detail."""
    for res in results.values():
        assert not re.search(r"\d\.\ds\b", res.detail), res.detail
