"""Building, validating and applying the canonical forms."""
import random
from fractions import Fraction

import pytest

from localaut import matrices
from localaut.autos import (
    CONTRAGREDIENT,
    SIGMA_CONJ,
    SIGMA_ID,
    STANDARD,
    apply,
    make_automorphism,
    op,
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
    QC,
    GroupTag,
    QR,
    close,
    conj,
    det,
    equal,
    identity,
    inv,
    mat,
    mul,
    random_gl,
    random_sl,
    random_unitary,
    smul,
    to_c64,
    transpose,
)
from localaut.scalarmaps import PowerConjFunc, PowerFunc, TableFunc
from localaut.scalars import DEFAULT_TOL

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


def test_a_conj_contragredient_inverts_each_input_and_t_once(monkeypatch):
    """Applying one contragredient sigma = conj automorphism of GL_3(C)
    twice to each of 12 exact inputs inverts T once and each input once:
    op reads A's memoized inverse, and apply reads T's."""
    computed = []
    real = matrices._compute_inv

    def spy(a):
        computed.append(a)
        return real(a)

    monkeypatch.setattr(matrices, "_compute_inv", spy)
    rng = random.Random(6)
    group = GroupTag("GL", "C", 3)
    auto = make_automorphism(group, CONTRAGREDIENT, SIGMA_CONJ, random_gl(3, QC, rng), PowerConjFunc(1, 1))
    mats = [random_gl(3, QC, rng) for _ in range(12)]
    for _ in range(2):
        for a in mats:
            apply(auto, a)
    assert len(computed) == 13
    assert computed[0] is auto.t and all(x is a for x, a in zip(computed[1:], mats))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjugation_commutes_with_inversion_in_op(n):
    """op(A, contragredient, conj) = transpose(inv(conj(A))): exactly over
    QC, within DEFAULT_TOL over C64."""
    rng = random.Random(n)
    for _ in range(10):
        a = random_gl(n, QC, rng)
        assert equal(op(a, CONTRAGREDIENT, SIGMA_CONJ), transpose(inv(conj(a))))
        b = to_c64(a)
        assert close(op(b, CONTRAGREDIENT, SIGMA_CONJ), transpose(inv(conj(b))), DEFAULT_TOL)
