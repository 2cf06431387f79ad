"""Pairwise interpolation: verdicts for sample pairs and whole sample maps."""
import random
from fractions import Fraction

import pytest

from localaut.autos import (
    CONTRAGREDIENT,
    SIGMA_ID,
    STANDARD,
    apply,
    make_automorphism,
)
from localaut.errors import BadParameters
from localaut.localcheck import SampleMap, check_map, check_pair, samples_from_automorphism
from localaut.matrices import (
    QC,
    GroupTag,
    QR,
    diag_first,
    equal,
    identity,
    inv,
    mul,
    random_gl,
    random_sl,
    smul,
    transpose,
)
from localaut.scalars import GaussRational

F = Fraction
SL3 = GroupTag("SL", "R", 3)


def _auto(kind, seed):
    return make_automorphism(SL3, kind, SIGMA_ID, random_gl(3, QR, random.Random(seed)))


def test_pair_from_genuine_automorphism_is_interpolable():
    auto = _auto(CONTRAGREDIENT, 0)
    rng = random.Random(1)
    a, b = random_sl(3, QR, rng), random_sl(3, QR, rng)
    v = check_pair(SL3, (a, apply(auto, a)), (b, apply(auto, b)), seed=0)
    assert v.status == "Interpolable"
    # two samples rarely pin down the kind, so only the matching contract
    # is asserted: the witness reproduces both samples exactly
    assert v.witness is not None
    from localaut.matrices import equal

    assert equal(apply(v.witness, a), apply(auto, a))
    assert equal(apply(v.witness, b), apply(auto, b))


def test_contragredient_gl_complex_pair_is_interpolable():
    """A -> g(det A) T A^-T T^-1 with g(d) = w = (3 + 4i)/5 at d = i / w^3:
    g(d)^3 d = i is torsion, but the contragredient kind induces
    f(d) = g(d)^3 / d, which is not, so the scalar passes the C* screen."""
    group = GroupTag("GL", "C", 3)
    rng = random.Random(4)
    g = lambda re, im=0: GaussRational(F(re), F(im))
    w = g(F(3, 5), F(4, 5))
    t = mul(random_sl(3, QC, rng), diag_first(3, g(2, 1), QC))
    phi = lambda a, c: smul(c, mul(mul(t, transpose(inv(a))), inv(t)))
    a = mul(random_sl(3, QC, rng), diag_first(3, g(0, 1) / w**3, QC))
    b = mul(random_sl(3, QC, rng), diag_first(3, g(2), QC))
    v = check_pair(group, (a, phi(a, w)), (b, phi(b, g(1))), seed=1)
    assert v.status == "Interpolable" and v.witness.kind == CONTRAGREDIENT
    assert equal(apply(v.witness, a), phi(a, w)) and equal(apply(v.witness, b), phi(b, g(1)))


def test_pair_with_wrong_spectrum_is_obstructed():
    rng = random.Random(2)
    a, b = random_sl(3, QR, rng), random_sl(3, QR, rng)
    v = check_pair(SL3, (a, a), (b, mul(b, b)), seed=0)
    assert v.status == "Obstructed"
    assert v.refusal_reasons()


def test_map_from_automorphism_is_locally_consistent():
    auto = _auto(STANDARD, 3)
    rng = random.Random(4)
    mats = [random_sl(3, QR, rng) for _ in range(3)]
    sm = samples_from_automorphism(auto, mats)
    rep = check_map(sm, seed=0)
    assert rep.status == "LocallyConsistent"
    assert rep.counts()["Interpolable"] == 3
    assert rep.first_obstruction is None


def test_pasted_map_is_obstructed():
    rng = random.Random(1)
    a, b = random_sl(3, QR, rng), random_sl(3, QR, rng)
    glue = SampleMap(
        SL3,
        (
            (a, apply(_auto(CONTRAGREDIENT, 0), a)),
            (b, apply(make_automorphism(SL3, STANDARD, SIGMA_ID, identity(3, QR)), b)),
        ),
    )
    rep = check_map(glue, seed=0)
    assert rep.status == "Obstructed"
    assert rep.first_obstruction == (0, 1)


def test_single_sample_is_checked_against_itself():
    auto = _auto(STANDARD, 5)
    a = random_sl(3, QR, random.Random(6))
    sm = samples_from_automorphism(auto, [a])
    rep = check_map(sm, seed=0)
    assert rep.status == "LocallyConsistent"
    assert len(rep.pair_verdicts) == 1


def test_empty_map_rejected():
    with pytest.raises(BadParameters):
        check_map(SampleMap(SL3, ()))


def test_sample_map_validates_shapes():
    a = random_sl(3, QR, random.Random(7))
    with pytest.raises(BadParameters):
        SampleMap(GroupTag("SL", "R", 4), ((a, a),))


def test_cstar_pair_with_conjugate_determinants_is_interpolable():
    """Samples of phi(A) = g(det A) A, with g = 1 on the roots of unity and
    on 1 + i and 2 + i, g(2 - i) = (1 + i)^2, extended Q-linearly over a
    complement of the roots of unity: f(z) = g(z)^4 z is id + 4G with
    G^2 = 0, a bijection, so phi is an automorphism of GL_4(C). As
    3 +- 4i = (2 +- i)^2, g(3 + 4i) = 1 and g(3 - 4i) = (1 + i)^4 = -4.
    |3 + 4i| = |3 - 4i|, but their quotient has infinite order, so |f| may
    differ on them."""
    gl4c = GroupTag("GL", "C", 4)
    rng = random.Random(0)
    za, zb = GaussRational(F(3), F(4)), GaussRational(F(3), F(-4))
    a = mul(random_sl(4, QC, rng), diag_first(4, za, QC))
    b = mul(random_sl(4, QC, rng), diag_first(4, zb, QC))
    v = check_pair(gl4c, (a, a), (b, smul(GaussRational(F(-4)), b)))
    assert v.status == "Interpolable"
    assert v.witness.g.points == ((za, GaussRational(F(1))), (zb, GaussRational(F(-4))))
