"""Gaussian rational arithmetic against the builtin complex numbers and a
reference kept as a pair of Fractions."""
import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.errors import BadParameters
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


# ---------------------------------------------------------------------------
# the grid scalar against a reference kept as a pair of Fractions (re, im)

parts = st.one_of(st.just(Fraction(0)), small, st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
pairs = st.tuples(parts, parts)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, x)
    return out if k >= 0 else ref_div((Fraction(1), Fraction(0)), out)


def pair_of(z):
    return z.re, z.im


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_field_operations_match_the_fraction_pair_reference(x, y):
    zx, zy = GaussRational(*x), GaussRational(*y)
    assert pair_of(zx + zy) == (x[0] + y[0], x[1] + y[1])
    assert pair_of(zx - zy) == (x[0] - y[0], x[1] - y[1])
    assert pair_of(-zx) == (-x[0], -x[1])
    assert pair_of(zx * zy) == ref_mul(x, y)
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
            zx / zy
    else:
        assert pair_of(zx / zy) == ref_div(x, y)
    assert (zx == zy) == (x == y)
    if x == y:
        assert hash(zx) == hash(zy)


@settings(max_examples=200, deadline=None)
@given(pairs, st.integers(min_value=-6, max_value=6))
def test_powers_match_the_fraction_pair_reference(x, k):
    z = GaussRational(*x)
    if k < 0 and x == (0, 0):
        with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
            z**k
    else:
        assert pair_of(z**k) == ref_pow(x, k)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_unary_views_and_round_trips_match_the_reference(x):
    re, im = x
    z = GaussRational(re, im)
    assert pair_of(z) == x and isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert pair_of(z.conjugate()) == (re, -im)
    assert z.abs2() == re * re + im * im and isinstance(z.abs2(), Fraction)
    assert bool(z) == (x != (0, 0))
    assert complex(z) == complex(float(re), float(im))
    assert str(z) == f"{re}{'+' if im >= 0 else ''}{im}i"
    assert repr(z) == f"GaussRational(re={re!r}, im={im!r})"
    assert hash(z) == hash((re, im))
    # the grid (p + i s) / q is canonical: q > 0 and gcd(p, s, q) = 1
    assert z.q > 0 and math.gcd(z.p, z.s, z.q) == 1
    assert (Fraction(z.p, z.q), Fraction(z.s, z.q)) == x
    for w in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert type(w) is GaussRational and w == z and repr(w) == repr(z) and hash(w) == hash(z)


def test_the_constructor_takes_ints_or_fractions_and_is_frozen():
    assert GaussRational(1, 0) == GaussRational(Fraction(1)) == GQ_ONE
    assert GaussRational(0, -2) == GaussRational(Fraction(0), Fraction(-2))
    assert repr(GaussRational(1)) == "GaussRational(re=Fraction(1, 1), im=Fraction(0, 1))"
    assert GaussRational(Fraction(1, 2), Fraction(1, 3)).q == 6
    assert (GaussRational(1) == 1) is False and GaussRational(1) != Fraction(1)
    z = GaussRational(1, 1)
    with pytest.raises(FrozenInstanceError):
        z.p = 2
    with pytest.raises(FrozenInstanceError):
        del z.q
    with pytest.raises(BadParameters):
        z ** Fraction(1, 2)


def test_a_power_reduces_the_common_factor_two():
    """(1 + i)^2 = 2i, so ((1 + i) / 2)^2 = i / 2 only after one reduction."""
    z = GaussRational(Fraction(1, 2), Fraction(1, 2))
    w = z**2
    assert (w.p, w.s, w.q) == (0, 1, 2)
    assert z**-2 == GaussRational(0, -2)
