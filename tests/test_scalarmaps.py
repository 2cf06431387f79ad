"""Scalar map classes: membership screens, (LAR) on lattices and the
pairwise domain checks."""
import cmath
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localaut.autos import SIGMA_CONJ, SIGMA_ID
from localaut.errors import BadParameters
from localaut.matrices import GroupTag
from localaut.mullattice import relations
from localaut.scalarmaps import (
    CIRCLE,
    CSTAR,
    MAX_POWER_BITS,
    RSTAR,
    LatticeFunc,
    PowerConjFunc,
    PowerFunc,
    TableFunc,
    _unit_order,
    check_LAR,
    check_character,
    evaluate,
    induced,
    pair_ok_cstar,
    pair_ok_mu,
    pair_ok_rclass,
)
from localaut.scalars import GaussRational

F = Fraction
GL3 = GroupTag("GL", "R", 3)
GL4 = GroupTag("GL", "R", 4)
GLC3 = GroupTag("GL", "C", 3)
U3 = GroupTag("Un", "C", 3)


def test_power_class_membership_by_parity():
    assert check_character(GL3, True, SIGMA_ID, PowerFunc(F(2))).ok
    assert check_character(GL3, False, SIGMA_ID, PowerFunc(F(1))).ok
    assert not check_character(GL3, True, SIGMA_ID, PowerFunc(F(1), "flip")).ok
    assert check_character(GL4, True, SIGMA_ID, PowerFunc(F(1), "flip")).ok


def test_circle_powers():
    assert check_character(U3, True, SIGMA_ID, PowerFunc(F(0), "same", CIRCLE)).ok
    for k in (-3, -1, 1, 2, 5):
        assert not check_character(U3, True, SIGMA_ID, PowerFunc(F(k), "same", CIRCLE)).ok
    with pytest.raises(BadParameters):
        PowerFunc(F(1, 2), "same", CIRCLE)
    with pytest.raises(BadParameters):
        PowerFunc(F(0), "flip", CIRCLE)


def test_power_func_evaluation_exact():
    g = PowerFunc(F(2, 3))
    assert evaluate(g, F(8)) == 4
    assert evaluate(g, F(-8)) == 4
    assert evaluate(PowerFunc(F(2, 3), "flip"), F(-8)) == -4
    assert evaluate(g, F(2)) is None  # no rational cube root of 4... of 2^2


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(lambda q: q != 0),
    st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(lambda q: q != 0),
    st.integers(0, 3),
)
def test_integer_powers_are_multiplicative(a, b, c):
    g = PowerFunc(F(c))
    assert evaluate(g, a * b) == evaluate(g, a) * evaluate(g, b)


def test_powerconj_on_gauss_rationals():
    z = GaussRational(F(1), F(1))
    g = PowerConjFunc(2, 1)
    assert evaluate(g, z) == (z * z) * z.conjugate()
    diag = PowerConjFunc(F(3, 2), F(3, 2))
    # |1+i|^2 = 2 and 2^(3/2) is irrational, so the exact evaluator declines
    assert evaluate(diag, z) is None
    # |2|^2 = 4 and 4^(3/2) = 8 is rational, so this one goes through
    assert evaluate(diag, GaussRational(F(2))) == 8


def test_class_pair_messages():
    # 2 = 4^(1/2) but f(2) = 2 and f(4) = 2^3 4 = 32, not 2^2
    assert pair_ok_rclass((F(2), F(1)), (F(4), F(2)), 3, True) == (
        False,
        "transport fails: f(2) should be f(4)^1/2",
    )
    # 6 and 48 are independent, but f(6) = 6 and f(48) = (1/2)^3 48 = 6
    assert pair_ok_rclass((F(6), F(1)), (F(48), F(1, 2)), 3, True) == (
        False,
        "independent arguments map into one class",
    )
    assert pair_ok_rclass((F(2), F(2)), (F(4), F(4)), 3, True) == (True, "")


def test_cstar_pair_screen():
    g = GaussRational
    one, i, two, four = g(F(1)), g(F(0), F(1)), g(F(2)), g(F(4))
    # f(i) = i^3 i = 1 has order 1, i has order 4
    assert pair_ok_cstar(i, i, two, one, 3, True) == (False, "f must preserve the torsion order of 0+1i")
    # w = (3 + 4i)/5 has infinite order; f(w^3) = (1/w)^3 w^3 = 1
    w = g(F(3, 5), F(4, 5))
    assert pair_ok_cstar(w**3, one / w, two, one, 3, True) == (
        False,
        "infinite-order circle element maps to torsion",
    )
    # |2|^2 = 4 = 16^(1/2) = (|4|^2)^(1/2), but |f(2)|^2 = 4 and |f(4)|^2 = 1024
    assert pair_ok_cstar(two, one, four, two, 3, True) == (False, "magnitude transport fails")
    assert pair_ok_cstar(two, one, four, one, 3, True) == (True, "")
    assert pair_ok_cstar(i, one, w, one, 3, True) == (True, "")
    # numeric data is not screened
    assert pair_ok_cstar(1j, 1j, 2 + 0j, 1 + 0j, 3, True) == (True, "")


def test_unit_orders_are_those_of_the_roots_of_unity_in_Q_i():
    """The roots of unity in Q(i) are +-1 and +-i; every other Gaussian
    rational, on the circle or off it, has infinite order."""
    one, i = GaussRational(1), GaussRational(0, 1)
    assert [_unit_order(z) for z in (one, -one, i, -i)] == [1, 2, 4, 4]
    assert _unit_order(GaussRational(F(3, 5), F(4, 5))) is None
    assert _unit_order(GaussRational(2)) is None
    for a in range(-4, 5):
        for b in range(-4, 5):
            for q in (1, 2, 5):
                z = GaussRational(F(a, q), F(b, q))
                if z:
                    powers = next((o for o in (1, 2, 4) if z**o == one), None)
                    assert _unit_order(z) == powers, z


def test_cstar_pair_screen_follows_the_kind():
    """The contragredient kind induces f(d) = g(d)^n / d: at d = i / w^3
    with g(d) = w, g(d)^n d = i is torsion but f(d) = -i w^6 is not."""
    one, i, w = GaussRational(F(1)), GaussRational(F(0), F(1)), GaussRational(F(3, 5), F(4, 5))
    d = i / w**3
    assert pair_ok_cstar(d, w, GaussRational(F(2)), one, 3, False) == (True, "")
    assert not pair_ok_cstar(d, w, GaussRational(F(2)), one, 3, True)[0]


def test_odd_extension_on_lattices():
    good = check_LAR(LatticeFunc((2, 3), (F(5), F(7)), -1))
    assert good.ok
    assert not check_LAR(LatticeFunc((2, 3), (F(2), F(4)), -1)).ok
    assert not check_LAR(LatticeFunc((2, 3), (F(5), F(7)), 1)).ok
    assert not check_LAR(LatticeFunc((2, 3), (F(-5), F(7)), -1)).ok


def test_lattice_class_membership():
    """g(2) = 4, g(3) = 9 on <2, 3> induces f(2) = 2^7 and f(3) = 3^7 at
    n = 3, independent images; a negative image or a sign twist at odd n
    is refused."""
    res = check_character(GL3, True, SIGMA_ID, LatticeFunc((2, 3), (F(4), F(9))))
    assert res.ok
    negative = check_character(GL3, True, SIGMA_ID, LatticeFunc((2, 3), (F(-4), F(9))))
    assert (negative.ok, negative.reason) == (False, "g(2) must be positive")
    twisted = check_character(GL3, True, SIGMA_ID, LatticeFunc((2, 3), (F(4), F(9)), -1))
    assert (twisted.ok, twisted.reason) == (False, "n odd forces g(-1) = g(1) > 0")


# generators and images over the primes 2, 3, 5 with small exponents
_SMALL = [F(2**a * 3**b * 5**c) for a in range(-2, 3) for b in range(-1, 2) for c in range(-1, 2)]


@st.composite
def _lattice_cases(draw):
    """(g, n, first_kind): a random lattice character, and half the time one
    whose last generator is placed where its f image is a product of powers
    of the others' f images, so that f is not injective on the lattice."""
    n, first_kind = draw(st.integers(3, 5)), draw(st.booleans())
    gens = draw(st.lists(st.sampled_from([x for x in _SMALL if x > 1]), min_size=1, max_size=3, unique=True))
    images = [draw(st.sampled_from(_SMALL)) * draw(st.sampled_from((1, 1, 1, -1))) for _ in gens]
    if len(gens) > 1 and draw(st.booleans()):
        target = F(1)
        for gen, img in zip(gens[:-1], images):
            target *= abs(induced(gen, img, n, first_kind)) ** draw(st.integers(-2, 2))
        power = abs(images[-1]) ** n
        gens[-1] = target / power if first_kind else power / target
    assume(1 not in gens and not relations(gens))
    g = LatticeFunc(gens, images, draw(st.sampled_from((1, -1))))
    return g, n, first_kind


def _lattice_rule(g, n, first_kind):
    """The class rule on a lattice character, written out on its own terms:
    positive images, a sign twist only at even n, and no relation among the
    f images of the generators."""
    if any(v <= 0 for v in g.images) or (g.sign_image == -1 and n % 2 == 1):
        return False
    return not relations([induced(gen, img, n, first_kind) for gen, img in zip(g.generators, g.images)])


@settings(max_examples=300, deadline=None)
@given(_lattice_cases())
def test_lattice_characters_are_screened_as_their_generator_tables(case):
    g, n, first_kind = case
    res = check_character(GroupTag("GL", "R", n), first_kind, SIGMA_ID, g)
    assert res.ok == _lattice_rule(g, n, first_kind)


def _table(points):
    return TableFunc(tuple((F(a), F(v)) for a, v in points))


def test_table_whose_f_is_not_injective_is_refused():
    """g(2/5) = 2/3, g(5/3) = 5/2, g(30) = 3/10: the dets are independent,
    every pair passes and |g| breaks no relation among the dets, but
    f(2/5)^14 f(5/3)^10 f(30)^13 = 1."""
    res = check_character(GL3, True, SIGMA_ID, _table([(F(2, 5), F(2, 3)), (F(5, 3), F(5, 2)), (30, F(3, 10))]))
    assert not res.ok and res.counterexample == (F(2, 5), F(5, 3), 30)
    assert res.evidence["relation"] == {"2/5": 14, "5/3": 10, "30": 13}
    assert "relation {'2/5': 14, '5/3': 10, '30': 13}" in res.reason


def test_domain_check_accepts_class_members():
    dom = [F(2), F(3), F(6), F(-2), F(1, 2)]
    res = check_character(GL3, True, SIGMA_ID, _table((d, evaluate(PowerFunc(F(1)), d)) for d in dom))
    assert res.ok and res.counterexample is None


def test_domain_check_rejects_induced_collisions():
    # g(2) = 2 and g(16) = 1 force f(2) = f(16) = 16, killing injectivity
    res = check_character(GL3, True, SIGMA_ID, _table([(2, 2), (16, 1)]))
    assert not res.ok and res.counterexample == (2, 16)
    assert res.reason == "transport fails: f(2) should be f(16)^1/4"
    assert not check_character(GL3, False, SIGMA_ID, _table([(2, 2), (F(1, 16), 1)])).ok


def test_domain_check_parity():
    res = check_character(GL3, True, SIGMA_ID, _table([(2, -2)]))
    assert (res.ok, res.counterexample, res.reason) == (False, (2,), "g(2) must be positive")
    flip = [(2, 2), (-2, -2)]
    assert check_character(GL4, True, SIGMA_ID, _table(flip)).ok
    assert check_character(GL3, True, SIGMA_ID, _table(flip)).counterexample == (-2,)
    res = check_character(GL4, True, SIGMA_ID, _table([(2, 2), (-2, -3)]))
    assert not res.ok and res.counterexample == (2, -2)


@pytest.mark.parametrize(
    "group, table, reason",
    [
        (GL3, TableFunc(((F(1), F(2)),)), "|lam| = 1 but |f(lam)| = 8 != 1"),
        (GLC3, TableFunc(((GaussRational(F(1)), GaussRational(F(2))),), CSTAR),
         "f must preserve the torsion order of 1+0i"),
        (U3, TableFunc(((1 + 0j, cmath.exp(0.5j)),), CIRCLE), "f(1) must be 1"),
    ],
    ids=[RSTAR, CSTAR, CIRCLE],
)
def test_a_table_off_the_class_is_refused_on_every_ambient(group, table, reason):
    """g(1) must have f(1) = g(1)^n = 1 on every ambient: g(1) = 2 on R* and
    C*, and g(1) = e^{0.5i} on the circle, are no characters of the class."""
    res = check_character(group, True, SIGMA_ID, table)
    assert (res.ok, res.reason, res.counterexample) == (False, reason, (table.points[0][0],))


_GAUSS_PARTS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_GAUSS_DETS = st.one_of(
    st.sampled_from([GaussRational(F(re), F(im)) for re, im in ((1, 0), (-1, 0), (0, 1), (0, -1), (3, 4))]),
    st.builds(GaussRational, _GAUSS_PARTS, _GAUSS_PARTS).filter(lambda z: z.abs2() != 0),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 5),
    st.booleans(),
    st.sampled_from([SIGMA_ID, SIGMA_CONJ]),
    st.integers(-3, 3),
    st.lists(_GAUSS_DETS, min_size=1, max_size=4, unique_by=lambda z: (z.re, z.im)),
)
def test_the_table_of_a_genuine_cstar_character_is_never_refused(n, first_kind, sigma, k, dets):
    """g(z) = |z|^(2k) at a few Gaussian-rational dets: wherever the class
    takes g itself, the table screen takes its table."""
    group, g = GroupTag("GL", "C", n), PowerConjFunc(k, k)
    assume(check_character(group, first_kind, sigma, g).ok)
    table = TableFunc(tuple((d, evaluate(g, d)) for d in dets), CSTAR)
    assert check_character(group, first_kind, sigma, table).ok


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from([SIGMA_ID, SIGMA_CONJ]),
    st.lists(st.one_of(st.just(0.0), st.floats(-cmath.pi, cmath.pi)), min_size=1, max_size=4),
)
def test_the_table_of_the_trivial_circle_character_is_never_refused(n, sigma, angles):
    """g = 1 on U_n, the one character of its class, at random circle points."""
    table = TableFunc(tuple((cmath.exp(1j * a), 1 + 0j) for a in angles), CIRCLE)
    assert check_character(GroupTag("Un", "C", n), True, sigma, table).ok


def test_table_func_lookup():
    t = TableFunc(((F(2), F(4)), (F(3), F(9))))
    assert t.ambient == RSTAR
    assert evaluate(t, F(3)) == 9
    assert evaluate(t, F(5)) is None
    # C*: exact Gaussian rational points
    i, two = GaussRational(F(0), F(1)), GaussRational(F(2))
    g = TableFunc(((i, two), (two, GaussRational(F(4)))), CSTAR)
    assert evaluate(g, GaussRational(F(0), F(1))) == two
    assert evaluate(g, GaussRational(F(0), F(-1))) is None
    # the circle: numeric points, matched within a tolerance
    c = TableFunc(((1j, -1j), (-1 + 0j, 1 + 0j)), CIRCLE)
    assert evaluate(c, 1j + 1e-12) == -1j
    assert c.lookup(1j + 1e-6) is None and c.lookup(1j + 1e-6, tol=1e-5) == -1j
    assert evaluate(c, 1 + 0j) is None


def test_circle_pair_screen_checks_moduli_then_f_of_one():
    off = cmath.exp(2j * cmath.pi / 5)  # g(1)^3 != 1
    cube = cmath.exp(2j * cmath.pi / 3)  # g(1)^3 = 1
    assert pair_ok_mu(2, 1, 1j, 1, 3) == (False, "circle data must stay on the circle")
    assert pair_ok_mu(1, off, 1j, 2, 3) == (False, "circle data must stay on the circle")
    assert pair_ok_mu(1, off, 1j, 1, 3) == (False, "f(1) must be 1")
    assert pair_ok_mu(1j, 1, 1, off, 3) == (False, "f(1) must be 1")
    assert pair_ok_mu(1, cube, 1j, off, 3) == (True, "")


BIG = 10**10  # 2**BIG would need over a gigabyte


@pytest.mark.parametrize(
    "g, x",
    [
        (PowerFunc(Fraction(BIG)), Fraction(2)),
        (PowerFunc(Fraction(BIG), ambient=CIRCLE), GaussRational(Fraction(3, 5), Fraction(4, 5))),
        (PowerConjFunc(BIG, 0), GaussRational(Fraction(1), Fraction(1))),
        (PowerConjFunc(Fraction(BIG, 3), Fraction(BIG, 3)), GaussRational(Fraction(2))),
        (LatticeFunc((2,), (3**1000,)), Fraction(2**1000)),
    ],
    ids=["power", "circle-power", "powerconj", "powerconj-diagonal", "latticehom"],
)
def test_evaluate_refuses_a_power_past_the_bit_ceiling(g, x):
    with pytest.raises(BadParameters, match=str(MAX_POWER_BITS)):
        evaluate(g, x)


def test_evaluate_takes_any_power_of_a_unit():
    i = GaussRational(Fraction(0), Fraction(1))
    assert evaluate(PowerFunc(Fraction(BIG), "flip"), Fraction(-1)) == -1
    assert evaluate(PowerFunc(Fraction(BIG + 1), ambient=CIRCLE), i) == i
    assert evaluate(PowerConjFunc(BIG, 1), i) == i.conjugate()


def test_evaluate_computes_a_power_at_the_bit_ceiling():
    """2^MAX_POWER_BITS is computed and 2^(MAX_POWER_BITS + 1) is not."""
    two = Fraction(2)
    assert evaluate(PowerFunc(Fraction(MAX_POWER_BITS)), two) == 2**MAX_POWER_BITS
    with pytest.raises(BadParameters, match=str(MAX_POWER_BITS)):
        evaluate(PowerFunc(Fraction(MAX_POWER_BITS + 1)), two)
    assert evaluate(PowerFunc(Fraction(-MAX_POWER_BITS)), two) == Fraction(1, 2**MAX_POWER_BITS)


def test_the_bit_gauge_reads_the_modulus_exactly():
    """|1 + 2i|^k has k log2(5) / 2, about 1.16 k bits, so k = MAX_POWER_BITS
    is past the ceiling; the floor of log2(5) would count k bits and let it
    through."""
    with pytest.raises(BadParameters, match=str(MAX_POWER_BITS)):
        evaluate(PowerConjFunc(MAX_POWER_BITS, 0), GaussRational(Fraction(1), Fraction(2)))
