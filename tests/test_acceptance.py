"""Acceptance gate: the ten end-to-end criteria, one pass/fail line each.

The suite runs once per session; each test prints its criterion's verdict
line and asserts it. Run with -s (or look at captured output on failure)
to see the lines.
"""
import json
import re
from pathlib import Path

import pytest

import localaut.acceptance as acceptance
from localaut.acceptance import run_all
from localaut.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(seed=0)}


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.line()


SEED0_DETAILS = {
    1: "24080 product identities over 6 forms x 20 maps x 200 pairs plus n=4 spot checks, "
    "0 failures, exact on rational regimes / 1e-8 on C64, wall-clock bound 30s",
    2: "50 idempotent shifts: standard images have exact spectrum {1/4, 2, 2}, "
    "contragredient {4, 1/2, 1/2}, 0 failures",
    3: "both 9-element bases nonsingular, image Gram equals source Gram entry for entry "
    "under 4+3 oracles",
    4: "20 exact SL3(R) round trips (100 fresh samples each, zero residual, scalar T' T^-1) "
    "and 20 SU3 round trips (T within 1e-6 after phase alignment, residuals under 1e-8), "
    "0 problems, wall-clock bound 60s",
    5: "6 characters recovered over 50 determinants, recovered tables match the oracle "
    "character exactly and pass the pairwise class screen, 0 problems",
    6: "all 3 sample pairs Interpolable, h(2) h(3) = 18 vs h(6) = 6, product pair breaks the "
    "homomorphism law: True, 1 relation refutation(s)",
    7: "100 random lattice maps, 29 accepted, verdicts from the generator test and from "
    "brute-force word sampling disagree 0 times",
    8: "z -> z^k accepted exactly when k = 0 for n in {3, 4, 5}, k in [-5, 5], 0 wrong verdicts",
    9: "line-scaled map passes every pair yet breaks additivity on a generator sum; "
    "the all-ones scaling is a global automorphism, 0 problems",
    10: "500 dependence verdicts match exact rank, 100 proportional functionals reproduce "
    "their constant, 0 problems",
}


def test_seed0_details_are_pinned(results):
    """The selftest digest hashes these strings, so any drift shows here."""
    assert {k: r.detail for k, r in results.items()} == SEED0_DETAILS


def test_details_carry_no_timings(results):
    """Timings vary run to run, so they stay out of the digested detail."""
    for res in results.values():
        assert not re.search(r"\d\.\ds\b", res.detail), res.detail


def test_selftest_digest_matches_the_golden_file(results, capsys, monkeypatch):
    """`selftest --seed 0` over these results prints the digest pinned in
    tests/golden/selftest.json; a change that moves it on purpose updates
    that file in the same commit."""
    monkeypatch.setattr(acceptance, "run_all", lambda seed, numbers=None: list(results.values()))
    code = main(["selftest", "--seed", "0"])
    report = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "selftest.json").read_text())["0"]
    assert (code, report["all_passed"], report["digest"]) == (0, True, want)
