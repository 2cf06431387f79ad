"""Gaussian rational arithmetic against the builtin complex numbers."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.scalars import GQ_ONE, GQ_ZERO, GaussRational, rational_pow

small = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def gq(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


@settings(max_examples=60, deadline=None)
@given(small, small, small, small)
def test_mul_matches_complex(a, b, c, d):
    x, y = gq(a, b), gq(c, d)
    z = x * y
    assert complex(z) == pytest.approx(complex(x) * complex(y), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(small, small, small, small)
def test_add_sub_roundtrip(a, b, c, d):
    x, y = gq(a, b), gq(c, d)
    assert (x + y) - y == x
    assert x - x == GQ_ZERO


def test_division_exact():
    x = gq(3, 4)
    y = gq(1, -2)
    assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        x / GQ_ZERO


def test_conjugate_and_abs2():
    z = gq(Fraction(3, 2), -5)
    assert z.conjugate() == gq(Fraction(3, 2), 5)
    assert z.abs2() == Fraction(9, 4) + 25
    assert (z * z.conjugate()) == GaussRational(z.abs2(), Fraction(0))


def test_powers():
    i = gq(0, 1)
    assert i * i == gq(-1)
    assert i**4 == GQ_ONE
    assert gq(1, 1) ** 2 == gq(0, 2)


def test_rational_pow_exact_cases():
    assert rational_pow(Fraction(8), Fraction(2, 3)) == Fraction(4)
    assert rational_pow(Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2)
    assert rational_pow(Fraction(2), Fraction(3)) == Fraction(8)
    assert rational_pow(Fraction(9, 16), Fraction(-1, 2)) == Fraction(4, 3)


def test_rational_pow_irrational_is_none():
    assert rational_pow(Fraction(2), Fraction(1, 2)) is None
    assert rational_pow(Fraction(3), Fraction(2, 3)) is None


def test_truthiness_is_the_zero_test():
    assert not GQ_ZERO and not GaussRational()
    assert GQ_ONE and gq(0, -1) and gq(Fraction(1, 3))
    assert [x for x in (GQ_ZERO, gq(2), GQ_ZERO, gq(0, 1)) if x] == [gq(2), gq(0, 1)]
