"""Multiplicative lattices: factorization, decomposition and hom evaluation."""
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from localaut.errors import BadParameters, DomainNotFactorable, TooFewGenerators
from localaut.mullattice import (
    _FACTOR_LIMIT,
    _MR_BASES,
    _PSI_13,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    dep_exponent,
    factor,
    factorint,
    hom_on_lattice,
    in_subgroup,
    lattice_decompose,
    make_lattice,
    relations,
)

nonzero = st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(lambda q: q != 0)


@settings(max_examples=50, deadline=None)
@given(nonzero)
def test_factor_reconstructs(q):
    sf = factor(q)
    assert sf.value() == q
    # exponents agree with sympy's factorization of |q|
    want = dict(sympy.factorint(abs(q).numerator))
    for p, e in sympy.factorint(abs(q).denominator).items():
        want[p] = want.get(p, 0) - e
    assert sf.exponents() == {p: e for p, e in want.items() if e}


def test_factorint_matches_sympy_up_to_20000():
    assert [factorint(n) for n in range(1, 20001)] == [sympy.factorint(n) for n in range(1, 20001)]


def test_factorint_matches_sympy_on_random_values():
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randrange(2, 10 ** rng.randrange(7, 25))
        assert factorint(n) == sympy.factorint(n), n


def _chernick_carmichaels():
    """(6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number."""
    for start in (1, 10**3, 10**5, 10**6):
        k = start
        while not all(sympy.isprime(m * k + 1) for m in (6, 12, 18)):
            k += 1
        yield (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


@pytest.mark.parametrize(
    "n",
    [
        2**132,
        3**83,
        1009**13,
        65537**8,
        (10**6 + 3) ** 6,
        (10**12 + 39) ** 3,
        (2**61 - 1) ** 2,
        2**5 * 1009**3 * (10**6 + 3) ** 2,
        561,
        41041,
        825265,
        321197185,
        5394826801,
        *_chernick_carmichaels(),
    ],
)
def test_factorint_prime_powers_and_carmichael_numbers(n):
    assert factorint(n) == sympy.factorint(n)


PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, PSI_12])
def test_factorint_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert factorint(n) == sympy.factorint(n)


def test_psi_12_needs_the_thirteenth_base():
    assert all(_strong_probable_prime(PSI_12, a) for a in _MR_BASES[:12])
    assert _MR_BASES[12] == 41 and not _strong_probable_prime(PSI_12, 41)


def test_factorint_above_psi_13_takes_the_bpsw_path():
    big_prime = sympy.nextprime(10**39)
    for p in (2**89 - 1, 2**127 - 1, big_prime):
        assert p > _PSI_13
        assert factorint(p) == {p: 1}
    assert factorint(1000003 * (2**89 - 1)) == {1000003: 1, 2**89 - 1: 1}
    assert factorint(7**3 * sympy.nextprime(10**37)) == {7: 3, sympy.nextprime(10**37): 1}
    # a base-2 strong pseudoprime above psi_13: only the Lucas half of BPSW rejects it
    spsp2 = 82096237 * 164192473 * 246288709
    assert spsp2 > _PSI_13 and _strong_probable_prime(spsp2, 2)
    assert factorint(spsp2) == sympy.factorint(spsp2) == {82096237: 1, 164192473: 1, 246288709: 1}


def test_strong_lucas_test_matches_sympy():
    """The range holds strong Lucas pseudoprimes such as 5459 = 53 * 103."""
    assert _strong_lucas_probable_prime(5459) and _strong_lucas_probable_prime(5777)
    odd = range(1001, 60001, 2)
    assert [_strong_lucas_probable_prime(n) for n in odd] == [bool(is_strong_lucas_prp(n)) for n in odd]


def test_factor_refuses_values_beyond_the_limit():
    for q in (Fraction(_FACTOR_LIMIT + 1), Fraction(-1, _FACTOR_LIMIT + 1)):
        with pytest.raises(DomainNotFactorable):
            factor(q)
    with pytest.raises(DomainNotFactorable):
        factorint(_FACTOR_LIMIT + 1)
    assert factor(Fraction(_FACTOR_LIMIT)).exponents() == {2: 40, 5: 40}


def test_factor_splits_two_factors_near_10_to_the_12():
    assert factor(Fraction(999999000001 * 1000000000039)).exponents() == {
        999999000001: 1,
        1000000000039: 1,
    }


def test_factor_gives_up_on_two_20_digit_primes_within_seconds():
    p, q = sympy.nextprime(10**19), sympy.nextprime(3 * 10**19)
    start = time.perf_counter()
    with pytest.raises(DomainNotFactorable):
        factor(Fraction(p * q))
    assert time.perf_counter() - start < 10


def test_dep_exponent_cases():
    assert dep_exponent(Fraction(8), Fraction(2)) == 3
    assert dep_exponent(Fraction(4), Fraction(8)) == Fraction(2, 3)
    assert dep_exponent(Fraction(1, 9), Fraction(3)) == -2
    assert dep_exponent(Fraction(6), Fraction(2)) is None
    assert dep_exponent(Fraction(12), Fraction(18)) is None


def test_dep_exponent_past_the_factoring_limit():
    assert dep_exponent(Fraction(2**1201), Fraction(3 * 2**1200)) is None
    assert dep_exponent(Fraction(2**1201), Fraction(2**2402)) == Fraction(1, 2)
    assert dep_exponent(Fraction(6**90, 35**90), Fraction(35**60, 6**60)) == Fraction(-3, 2)


def _dep_by_factoring(a, b):
    """The exponent q with a = b**q read off the prime factorizations."""
    ea, eb = factor(a).exponents(), factor(b).exponents()
    if not ea or not eb:
        return Fraction(1) if ea == eb else None
    if set(ea) != set(eb):
        return None
    qs = {Fraction(ea[p], eb[p]) for p in ea}
    return qs.pop() if len(qs) == 1 else None


positive = st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40).filter(lambda q: q > 0)
power = st.integers(-6, 6)


@settings(max_examples=300, deadline=None)
@given(positive, positive, power, power, st.booleans())
def test_dep_exponent_agrees_with_factoring(r, s, i, j, related):
    # related pairs share a base r; the others are two independent draws
    a, b = (r**i, r**j) if related else (r**i, s**j)
    assert dep_exponent(a, b) == _dep_by_factoring(a, b)


def test_lattice_rejects_dependent_generators():
    with pytest.raises(BadParameters):
        make_lattice(2, 4)
    with pytest.raises(BadParameters):
        make_lattice(2, 3, 6)
    with pytest.raises(BadParameters):
        make_lattice(1)
    with pytest.raises(TooFewGenerators):
        make_lattice()


def test_decompose_and_membership():
    lat = make_lattice(2, 3)
    v = lattice_decompose(Fraction(12), lat)
    assert v is not None and v.is_integral()
    assert in_subgroup(Fraction(-8, 27), lat)
    assert not in_subgroup(Fraction(5), lat)
    assert lattice_decompose(Fraction(10), lat) is None
    # 6 = 2 * 3 lies in <2, 3> even though it is neither generator
    assert in_subgroup(Fraction(6), lat)


def test_hom_evaluation_is_multiplicative():
    lat = make_lattice(2, 3)
    hom = hom_on_lattice(lat, (Fraction(5), Fraction(7)), sign_image=-1)
    assert hom.evaluate(Fraction(2)) == 5
    assert hom.evaluate(Fraction(3)) == 7
    assert hom.evaluate(Fraction(12)) == 5 * 5 * 7
    assert hom.evaluate(Fraction(-2, 3)) == Fraction(-5, 7)
    assert hom.evaluate(Fraction(5)) is None
    for x, y in ((Fraction(2), Fraction(3)), (Fraction(4), Fraction(-9, 2))):
        assert hom.evaluate(x * y) == hom.evaluate(x) * hom.evaluate(y)


def test_hom_validation():
    lat = make_lattice(2, 3)
    with pytest.raises(BadParameters):
        hom_on_lattice(lat, (Fraction(5),))
    with pytest.raises(BadParameters):
        hom_on_lattice(lat, (Fraction(5), Fraction(7)), sign_image=2)


@settings(max_examples=150, deadline=None)
@given(st.lists(nonzero, min_size=1, max_size=5))
def test_relations_empty_exactly_when_the_exponent_matrix_has_full_rank(values):
    exps = [sympy.factorint(abs(v.numerator)) for v in values]
    dens = [sympy.factorint(v.denominator) for v in values]
    primes = sorted({p for e in exps + dens for p in e})
    m = sympy.Matrix([[e.get(p, 0) - d.get(p, 0) for e, d in zip(exps, dens)] for p in primes] or [[0] * len(values)])
    rels = relations(values)
    assert (rels == []) == (m.rank() == len(values))
    assert len(rels) == len(values) - m.rank()
    for rel in rels:
        prod = Fraction(1)
        for v, e in zip(values, rel):
            prod *= abs(v) ** e
        assert prod == 1 and sympy.gcd_list(rel) == 1
