"""Multiplicative lattices: relations, subgroup exponents and lattice
character evaluation."""
import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localaut.errors import BadParameters, DomainNotFactorable, TooFewGenerators, ZeroInput
from localaut.mullattice import _TRIAL_BOUND, _valuation, dep_exponent, factor, relations, subgroup_exponents
from localaut.scalarmaps import LatticeFunc, det_relation_refutations, evaluate

nonzero = st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(lambda q: q != 0)


@settings(max_examples=50, deadline=None)
@given(nonzero)
def test_factor_reconstructs(q):
    sf = factor(q)
    value = Fraction(sf.sign)
    for p, e in sf.factors:
        value *= Fraction(p) ** e
    assert value == q
    # exponents agree with sympy's factorization of |q|
    want = dict(sympy.factorint(abs(q).numerator))
    for p, e in sympy.factorint(abs(q).denominator).items():
        want[p] = want.get(p, 0) - e
    assert dict(sf.factors) == {p: e for p, e in want.items() if e}


# The factorint tests below keep their names; they now check factor's
# trial division on every value it does not refuse.


def test_factorint_matches_sympy_up_to_20000():
    assert [dict(factor(Fraction(n)).factors) for n in range(1, 20001)] == [
        sympy.factorint(n) for n in range(1, 20001)
    ]


@pytest.mark.parametrize(
    "n",
    [
        2**132,
        3**83,
        1009**13,
        65537**8,
        561,
        1729,
        41041,
        825265,
        321197185,
        5394826801,
        1396066334401,
    ],
)
def test_factorint_prime_powers_and_carmichael_numbers(n):
    assert dict(factor(Fraction(n)).factors) == sympy.factorint(n)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_factorint_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert dict(factor(Fraction(n)).factors) == sympy.factorint(n)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441


def test_factor_refuses_values_beyond_the_limit():
    """A cofactor above _TRIAL_BOUND**2 with no prime factor up to the bound
    is refused, in a numerator or a denominator."""
    for q in (
        Fraction(PSI_12),
        Fraction(-1, (10**6 + 3) ** 2),
        Fraction(2**5 * 1009**3 * (10**6 + 3) ** 2),
        Fraction(7, (2**61 - 1) ** 2),
        Fraction((10**12 + 39) ** 3),
        Fraction(1307351018993397769),  # Carmichael, 3 factors near 10^6
        Fraction(1, 1296198694153288947529),  # Carmichael, 3 factors above 10^6
    ):
        with pytest.raises(DomainNotFactorable):
            factor(q)
    assert _TRIAL_BOUND**2 < PSI_12
    assert dict(factor(Fraction(10**40)).factors) == {2: 40, 5: 40}
    assert dict(factor(Fraction(-3, 10**6 + 3)).factors) == {3: 1, 10**6 + 3: -1}


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
    ea, eb = dict(factor(a).factors), dict(factor(b).factors)
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
    with pytest.raises(BadParameters, match="Q-linearly dependent"):
        LatticeFunc((2, 4), (3, 5))
    with pytest.raises(BadParameters, match="Q-linearly dependent"):
        LatticeFunc((2, 3, 6), (5, 7, 11))
    with pytest.raises(BadParameters, match="1 generates nothing"):
        LatticeFunc((1,), (2,))
    with pytest.raises(BadParameters, match="must be positive"):
        LatticeFunc((-2,), (2,))
    with pytest.raises(TooFewGenerators):
        LatticeFunc((), ())


def test_decompose_and_membership():
    g = LatticeFunc((2, 3), (5, 7))
    assert g.generators == (Fraction(2), Fraction(3)) and g.images == (Fraction(5), Fraction(7))
    assert subgroup_exponents(Fraction(12), g.generators) == [2, 1]
    assert subgroup_exponents(Fraction(-8, 27), g.generators) == [3, -3]
    assert evaluate(g, Fraction(5)) is None
    assert evaluate(g, Fraction(10)) is None
    # 6 = 2 * 3 lies in <2, 3> even though it is neither generator
    assert evaluate(g, Fraction(6)) == 35
    # 2 = 4^(1/2) is in the divisible hull of <4, 9> but not in the subgroup
    assert evaluate(LatticeFunc((4, 9), (2, 3)), Fraction(2)) is None
    assert subgroup_exponents(Fraction(2), (Fraction(4), Fraction(9))) is None


# independent generators over 2, 3, 5, 7; no word in them has the factor 11
_GENS = [Fraction(2**a * 3**b, 5**c * 7**d) for a in range(3) for b in range(2) for c in range(2) for d in range(2)]


@st.composite
def _words(draw):
    gens = draw(st.lists(st.sampled_from([x for x in _GENS if x != 1]), min_size=1, max_size=3, unique=True))
    assume(not relations(gens))
    images = [draw(nonzero) for _ in gens]
    sign_image = draw(st.sampled_from((1, -1)))
    word = [draw(st.integers(-3, 3)) for _ in gens]
    return LatticeFunc(gens, images, sign_image), draw(st.sampled_from((1, -1))), word


@settings(max_examples=200, deadline=None)
@given(_words())
def test_hom_evaluation_is_multiplicative(case):
    g, s, word = case
    x, want = Fraction(s), Fraction(g.sign_image if s < 0 else 1)
    for gen, img, w in zip(g.generators, g.images, word):
        x, want = x * gen**w, want * img**w
    assert evaluate(g, x) == want
    assert evaluate(g, x * 11) is None
    # x lies in the divisible hull of the squares' subgroup, and in the
    # subgroup itself exactly when every exponent is even
    squares = LatticeFunc([gen**2 for gen in g.generators], g.images, g.sign_image)
    halved = Fraction(g.sign_image if s < 0 else 1)
    for img, w in zip(g.images, word):
        halved *= img ** (w // 2)
    assert evaluate(squares, x) == (None if any(w % 2 for w in word) else halved)
    fixed = LatticeFunc((2, 3), (5, 7), sign_image=-1)
    assert evaluate(fixed, Fraction(-2, 3)) == Fraction(-5, 7)
    for a, b in ((Fraction(2), Fraction(3)), (Fraction(4), Fraction(-9, 2))):
        assert evaluate(fixed, a * b) == evaluate(fixed, a) * evaluate(fixed, b)


def test_hom_validation():
    with pytest.raises(BadParameters, match="one image per generator"):
        LatticeFunc((2, 3), (5,))
    with pytest.raises(BadParameters, match="sign image"):
        LatticeFunc((2, 3), (5, 7), sign_image=2)
    with pytest.raises(ZeroInput, match="images must be nonzero"):
        LatticeFunc((2, 3), (5, 0))
    with pytest.raises(ZeroInput):
        evaluate(LatticeFunc((2, 3), (5, 7)), 0)


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


def _relations_by_factoring(values):
    """Primitive nullspace vectors of the prime exponent matrix, by sympy."""
    exps = [sympy.factorint(abs(v.numerator)) for v in values]
    dens = [sympy.factorint(v.denominator) for v in values]
    primes = sorted({p for e in exps + dens for p in e})
    m = sympy.Matrix([[e.get(p, 0) - d.get(p, 0) for e, d in zip(exps, dens)] for p in primes] or [[0] * len(values)])
    out = []
    for vec in m.nullspace():
        den = math.lcm(*[int(x.q) for x in vec])
        ints = [int(x * den) for x in vec]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out


# small primes, shared factors and powers, so that relations are common
word = st.builds(
    lambda es, sign: sign * Fraction(2) ** es[0] * Fraction(3) ** es[1] * Fraction(5) ** es[2] * Fraction(7) ** es[3],
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.sampled_from([1, -1]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(word, nonzero), min_size=1, max_size=6))
def test_relations_are_the_prime_factorization_nullspace(values):
    assert relations(values) == _relations_by_factoring(values)


P19, Q19 = 10000000000000000051, 10000000000000000087  # primes near 10**19


def test_relations_of_a_product_of_two_19_digit_primes():
    assert sympy.isprime(P19) and sympy.isprime(Q19)
    assert relations([Fraction(P19 * Q19), Fraction(P19), Fraction(Q19)]) == [[-1, 1, 1]]
    assert relations([Fraction(P19 * Q19), Fraction(P19), Fraction(3)]) == []
    refuted = det_relation_refutations({P19 * Q19: 6, P19: 2, Q19: 4})
    assert refuted == [{"relation": {str(P19): -1, str(Q19): -1, str(P19 * Q19): 1}, "image_product": "3/4"}]
    assert det_relation_refutations({P19 * Q19: 8, P19: 2, Q19: 4}) == []


def test_lattice_with_a_generator_beyond_10_to_the_40():
    big = 10**41 + 3
    g = LatticeFunc((2, big), (5, 7), sign_image=-1)
    assert subgroup_exponents(Fraction(-8 * big**2, 1), g.generators) == [3, 2]
    assert evaluate(g, Fraction(-8 * big**2, 1)) == -(5**3) * 7**2
    assert subgroup_exponents(Fraction(big, 2), g.generators) == [-1, 1]
    assert evaluate(g, Fraction(2 * big**3, 3)) is None
    assert evaluate(g, Fraction(3)) is None
    with pytest.raises(BadParameters):
        LatticeFunc((big, big**2 * 4, 2), (5, 7, 11))


def _valuation_one_factor_at_a_time(x, p):
    e = 0
    while x % p == 0:
        x, e = x // p, e + 1
    return e, x


@pytest.mark.parametrize(
    "x, p",
    [
        pytest.param(2**40000, 2, id="2^40000-by-2"),
        pytest.param(3 * 2**40000, 2, id="3*2^40000-by-2"),
        pytest.param(3 * 2**40000, 3, id="3*2^40000-by-3"),
        pytest.param(3 * 2**40000, 5, id="3*2^40000-by-5"),
        pytest.param(7**5 * 11, 7, id="7^5*11-by-7"),
        pytest.param(12**30 * 5, 4, id="12^30*5-by-4"),
        pytest.param(1, 2, id="1-by-2"),
    ],
)
def test_valuation_matches_the_one_factor_definition(x, p):
    assert _valuation(x, p) == _valuation_one_factor_at_a_time(x, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(2, 50), st.integers(0, 300))
def test_valuation_of_random_powers(cofactor, p, e):
    x = cofactor * p**e
    assert _valuation(x, p) == _valuation_one_factor_at_a_time(x, p)


def test_a_large_power_is_read_in_a_few_divisions():
    # one factor per division took about 1.2 s on a 2-CPU Xeon; doubling takes milliseconds
    start = time.perf_counter()
    assert subgroup_exponents(Fraction(3 * 2**40000), (Fraction(2), Fraction(3))) == [40000, 1]
    assert evaluate(LatticeFunc((2,), (3,)), Fraction(2**20000)) == 3**20000
    assert time.perf_counter() - start < 0.5
