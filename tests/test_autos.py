"""Building, validating, composing and inverting the canonical forms."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.autos import (
    CONTRAGREDIENT,
    SIGMA_CONJ,
    SIGMA_ID,
    STANDARD,
    agree_on,
    apply,
    compose,
    invert,
    make_automorphism,
)
from localaut.errors import (
    BadParameters,
    IllegalScalarClass,
    IllegalSigma,
    NonUnitaryT,
    NotInGroup,
    SingularT,
)
from localaut.matrices import (
    GroupTag,
    QC,
    QR,
    close,
    det,
    equal,
    identity,
    mat,
    mul,
    random_gl,
    random_sl,
    random_su,
    random_unitary,
    smul,
)
from localaut.scalarmaps import CIRCLE, PowerConjFunc, PowerFunc, TableFunc

F = Fraction
SL3 = GroupTag("SL", "R", 3)
GL3 = GroupTag("GL", "R", 3)


def test_standard_form_is_conjugation():
    rng = random.Random(1)
    t = random_gl(3, QR, rng)
    auto = make_automorphism(SL3, STANDARD, SIGMA_ID, t)
    a = random_sl(3, QR, rng)
    got = apply(auto, a)
    from localaut.matrices import inv

    assert equal(got, mul(mul(t, a), inv(t)))


def test_contragredient_form_inverts_transposes():
    rng = random.Random(2)
    auto = make_automorphism(SL3, CONTRAGREDIENT, SIGMA_ID, identity(3, QR))
    a = random_sl(3, QR, rng)
    from localaut.matrices import inv, transpose

    assert equal(apply(auto, a), inv(transpose(a)))


def test_gl_scalar_character_scales_by_determinant():
    rng = random.Random(3)
    auto = make_automorphism(GL3, STANDARD, SIGMA_ID, identity(3, QR), PowerFunc(F(1)))
    a = random_gl(3, QR, rng)
    assert equal(apply(auto, a), smul(abs(det(a)), a))


def test_homomorphism_property_random():
    rng = random.Random(4)
    for kind in (STANDARD, CONTRAGREDIENT):
        auto = make_automorphism(
            GL3, kind, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(F(2))
        )
        for _ in range(10):
            a, b = random_gl(3, QR, rng), random_gl(3, QR, rng)
            assert equal(apply(auto, mul(a, b)), mul(apply(auto, a), apply(auto, b)))


def test_validation_rejects_bad_ingredients():
    with pytest.raises(IllegalSigma):
        make_automorphism(SL3, STANDARD, SIGMA_CONJ, identity(3, QR))
    with pytest.raises(SingularT):
        make_automorphism(SL3, STANDARD, SIGMA_ID, smul(F(0), identity(3, QR)))
    with pytest.raises(IllegalScalarClass):
        make_automorphism(SL3, STANDARD, SIGMA_ID, identity(3, QR), PowerFunc(F(1)))
    with pytest.raises(IllegalScalarClass):
        # the sign flip needs even n
        make_automorphism(GL3, STANDARD, SIGMA_ID, identity(3, QR), PowerFunc(F(1), "flip"))
    with pytest.raises(NonUnitaryT):
        make_automorphism(
            GroupTag("Un", "C", 3), STANDARD, SIGMA_ID, smul(2.0, identity(3, "C64"))
        )
    with pytest.raises(BadParameters):
        make_automorphism(
            GroupTag("SUn", "C", 3), CONTRAGREDIENT, SIGMA_ID, random_unitary(3, 0)
        )


def test_apply_enforces_membership():
    auto = make_automorphism(SL3, STANDARD, SIGMA_ID, identity(3, QR))
    with pytest.raises(NotInGroup):
        apply(auto, smul(F(2), identity(3, QR)))


def test_flip_character_on_even_size():
    gl4 = GroupTag("GL", "R", 4)
    auto = make_automorphism(
        gl4, STANDARD, SIGMA_ID, identity(4, QR), PowerFunc(F(0), "flip")
    )
    rng = random.Random(5)
    neg = mul(random_sl(4, QR, rng), mat(
        [[-1 if i == j == 0 else (1 if i == j else 0) for j in range(4)] for i in range(4)], QR
    ))
    assert det(neg) == -1
    assert equal(apply(auto, neg), smul(F(-1), neg))


def test_compose_and_invert_exact():
    rng = random.Random(6)
    glc = GroupTag("GL", "C", 3)
    a1 = make_automorphism(
        glc, CONTRAGREDIENT, SIGMA_CONJ, random_gl(3, QC, rng), PowerConjFunc(1, 1)
    )
    a2 = make_automorphism(glc, STANDARD, SIGMA_ID, random_gl(3, QC, rng), PowerConjFunc(0, 0))
    comp = compose(a1, a2)
    samples = [random_gl(3, QC, rng) for _ in range(6)]
    for s in samples:
        assert equal(apply(comp, s), apply(a1, apply(a2, s)))
    inv1 = invert(a1)
    for s in samples:
        assert equal(apply(inv1, apply(a1, s)), s)


def _compose_invert_round_trip(group, kind1, sigma1, g1, kind2, sigma2, g2, seed):
    """compose(a1, a2) acts as a1 after a2, invert(a1) undoes a1, and
    compose(invert(a1), a1) is the identity with no character left."""
    rng = random.Random(seed)
    n = group.n

    def random_auto(kind, sigma, g):
        if group.unitary:
            t = random_unitary(n, rng.randrange(10**6))
        else:
            t = random_gl(n, group.regimes()[0], rng)
        return make_automorphism(group, kind, sigma, t, g)

    a1, a2 = random_auto(kind1, sigma1, g1), random_auto(kind2, sigma2, g2)
    comp, inv1 = compose(a1, a2), invert(a1)
    back = compose(inv1, a1)
    assert back.g is None
    if group.unitary:
        samples = [random_unitary(n, rng.randrange(10**6)) for _ in range(3)]
    else:
        samples = [random_gl(n, group.regimes()[0], rng) for _ in range(3)]
    tol = 1e-8
    for s in samples:
        assert close(apply(comp, s, tol), apply(a1, apply(a2, s, tol), tol), tol)
        assert close(apply(inv1, apply(a1, s, tol), tol), s, tol)
        assert close(apply(back, s, tol), s, tol)


KINDS = st.sampled_from([STANDARD, CONTRAGREDIENT])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), KINDS, KINDS, st.integers(-2, 2), st.integers(-2, 2), st.booleans(), st.booleans(),
       st.integers(0, 10**6))
def test_compose_and_invert_over_real_gl(n, kind1, kind2, c1, c2, flip1, flip2, seed):
    """|t|^c characters of both kinds; the sign twist at even n only."""
    def g(c, flip):
        return PowerFunc(F(c), "flip" if flip and n % 2 == 0 else "same")

    group = GroupTag("GL", "R", n)
    _compose_invert_round_trip(group, kind1, SIGMA_ID, g(c1, flip1), kind2, SIGMA_ID, g(c2, flip2), seed)


SIGMAS = st.sampled_from([SIGMA_ID, SIGMA_CONJ])


@settings(max_examples=20, deadline=None)
@given(KINDS, KINDS, SIGMAS, SIGMAS, st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 10**6))
def test_compose_and_invert_over_complex_gl(kind1, kind2, sigma1, sigma2, k1, k2, seed):
    """The |z|^(2k) family with both sigmas; inverses carry fractional k."""
    group = GroupTag("GL", "C", 3)
    g1, g2 = PowerConjFunc(F(k1), F(k1)), PowerConjFunc(F(k2), F(k2))
    _compose_invert_round_trip(group, kind1, sigma1, g1, kind2, sigma2, g2, seed)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("sigma1", [SIGMA_ID, SIGMA_CONJ])
@pytest.mark.parametrize("sigma2", [SIGMA_ID, SIGMA_CONJ])
def test_compose_and_invert_over_unitary_groups(n, sigma1, sigma2):
    """On U_n only z^0 keeps f(z) = z^(nk + 1) onto; it composes and
    inverts like no character at all."""
    group = GroupTag("Un", "C", n)
    trivial = PowerFunc(F(0), "same", CIRCLE)
    _compose_invert_round_trip(group, STANDARD, sigma1, trivial, STANDARD, sigma2, None, n)
    _compose_invert_round_trip(group, STANDARD, sigma1, None, STANDARD, sigma2, trivial, n + 1)


def test_tables_do_not_compose():
    gl3 = GroupTag("GL", "R", 3)
    table = TableFunc(((F(2), F(2)),))
    a = make_automorphism(gl3, STANDARD, SIGMA_ID, identity(3, QR), table)
    with pytest.raises(BadParameters):
        compose(a, a)
    with pytest.raises(BadParameters):
        invert(a)


def test_agree_on():
    rng = random.Random(7)
    t = random_gl(3, QR, rng)
    a1 = make_automorphism(SL3, STANDARD, SIGMA_ID, t)
    a2 = make_automorphism(SL3, STANDARD, SIGMA_ID, smul(F(5), t))
    samples = [random_sl(3, QR, rng) for _ in range(5)]
    assert agree_on(a1, a2, samples)
    a3 = make_automorphism(SL3, CONTRAGREDIENT, SIGMA_ID, t)
    assert not agree_on(a1, a3, samples)
