"""Building, validating and applying the canonical forms."""
import random
from fractions import Fraction

import pytest

from localaut.autos import (
    CONTRAGREDIENT,
    SIGMA_CONJ,
    SIGMA_ID,
    STANDARD,
    apply,
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
    QR,
    det,
    equal,
    identity,
    mat,
    mul,
    random_gl,
    random_sl,
    random_unitary,
    smul,
)
from localaut.scalarmaps import PowerFunc, TableFunc

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


def test_table_breaking_a_relation_among_the_dets_is_refused():
    """Every pair of g(2) = 2, g(3) = 9, g(6) = 6 fits a class member, but
    g(2) g(3) != g(6), so no character passes through all three points:
    phi(xy) != phi(x) phi(y) at x = diag(2, 1, 1), y = diag(3, 1, 1)."""
    table = TableFunc(((F(2), F(2)), (F(3), F(9)), (F(6), F(6))))
    with pytest.raises(IllegalScalarClass, match=r"relation \{'2': -1, '3': -1, '6': 1\}"):
        make_automorphism(GL3, STANDARD, SIGMA_ID, identity(3, QR), table)
    pairwise = TableFunc(((F(2), F(2)), (F(3), F(9))))
    assert make_automorphism(GL3, STANDARD, SIGMA_ID, identity(3, QR), pairwise).g == pairwise
