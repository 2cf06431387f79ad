"""Pairwise interpolation: verdicts for sample pairs and whole sample maps."""
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
    apply,
    make_automorphism,
)
from localaut.errors import BadParameters, IllegalScalarClass
from localaut.localcheck import SampleMap, check_map, check_pair, samples_from_automorphism
from localaut.matrices import (
    C64,
    QC,
    GroupTag,
    QR,
    conj,
    det,
    diag_first,
    equal,
    identity,
    inv,
    mat,
    mul,
    random_gl,
    random_sl,
    random_unitary,
    smul,
    transpose,
)
from localaut import scalarmaps
from localaut.scalarmaps import PowerConjFunc, PowerFunc, check_character
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


@pytest.mark.parametrize("kind", [STANDARD, CONTRAGREDIENT])
def test_gl_complex_conj_map_is_interpolable(kind):
    """GL_3(C) with sigma = conj and g(z) = |z|^2: the scalar at each sample
    is tr(out) / tr(op(A)), exact, so all 28 pairs of 8 samples get a
    witness."""
    group = GroupTag("GL", "C", 3)
    rng = random.Random(3)
    auto = make_automorphism(group, kind, SIGMA_CONJ, random_gl(3, QC, rng), PowerConjFunc(1, 1))
    rep = check_map(samples_from_automorphism(auto, [random_gl(3, QC, rng) for _ in range(8)]))
    assert rep.counts() == {"Interpolable": 28, "Obstructed": 0, "Inconclusive": 0}


def test_numeric_gl_complex_conj_map_is_interpolable():
    """The C64 candidates are the numeric n-th roots of det(out) / det(op(A)),
    with det(op(A)) = conj(det A)^(+-1) under sigma = conj."""
    group = GroupTag("GL", "C", 3)
    t = mat([[1 + 0.5j, 0, 2], [0, 1, -1j], [0.5, 0, 1]], C64)
    rng = random.Random(3)
    auto = make_automorphism(group, CONTRAGREDIENT, SIGMA_CONJ, t, PowerConjFunc(1, 1))
    rep = check_map(samples_from_automorphism(auto, [random_gl(3, C64, rng) for _ in range(4)]), seed=1)
    assert rep.counts()["Interpolable"] == 6


def test_conj_branch_screens_the_conjugated_determinant():
    """phi(A) = g(det A) T conj(A) T^-1 on GL_3(C), with g(d) = e for
    e = (3 + 4i)/5 and d = conj(e)^3, and g(2) = 1. g exists with
    f(z) = g(z)^3 conj(z) bijective: g = 1 on R>0 and on the roots of
    unity, and z -> z^(-1/3) on a Q-linear complement of the roots of unity
    in the circle (through e), where f is then z -> z^-2. The induced map
    reads conj(d): f(d) = e^6 has infinite order like d. Read at d itself,
    e^3 d = 1 is torsion, which refuted the branch."""
    group = GroupTag("GL", "C", 3)
    e = GaussRational(F(3, 5), F(4, 5))
    d = e.conjugate() ** 3
    rng = random.Random(4)
    t = random_gl(3, QC, rng)
    phi = lambda a, c: smul(c, mul(mul(t, conj(a)), inv(t)))
    a = mul(random_sl(3, QC, rng), diag_first(3, d, QC))
    b = mul(random_sl(3, QC, rng), diag_first(3, GaussRational(F(2)), QC))
    v = check_pair(group, (a, phi(a, e)), (b, phi(b, GaussRational(F(1)))))
    assert v.status == "Interpolable" and v.witness.sigma == SIGMA_CONJ
    assert v.witness.g.points == ((d, e), (GaussRational(F(2)), GaussRational(F(1))))


def test_unitary_conj_witness_reads_g_at_the_conjugate_determinant():
    """U_3 under sigma = conj has the form A -> g(det conj(A)) T conj(A) T^-1,
    so the witness table holds g at conj(det A), not at det A."""
    group = GroupTag("Un", "C", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_CONJ, random_unitary(3, seed=5))
    a, b = random_unitary(3, seed=6), random_unitary(3, seed=7)
    turn = complex(0.6, 0.8)
    sample_a = (a, smul(turn, apply(auto, a)))
    v = check_pair(group, sample_a, (b, apply(auto, b)))
    assert v.status == "Interpolable" and v.witness.sigma == SIGMA_CONJ
    (pa, ca), (pb, cb) = v.witness.g.points
    da, db = complex(det(a)), complex(det(b))
    assert abs(pa - da.conjugate()) < 1e-9 and abs(pb - db.conjugate()) < 1e-9
    assert abs(pa - da) > 1e-3 and abs(pb - db) > 1e-3
    assert abs(ca - turn) < 1e-9 and abs(cb - 1) < 1e-9
    # a sample paired with itself gives the table one point
    v = check_pair(group, sample_a, sample_a)
    assert v.status == "Interpolable" and len(v.witness.g.points) == 1
    assert abs(v.witness.g.points[0][0] - da.conjugate()) < 1e-9


@pytest.mark.parametrize("field", ["R", "C"])
def test_two_scalars_at_one_determinant_are_obstructed(field):
    """A -> A and B -> -B with det A = det B = 2: the standard, sigma = id
    branch needs g(2) = 1 and g(2) = -1 at once."""
    regime = QR if field == "R" else QC
    rng = random.Random(4)
    a, b = (mul(random_sl(3, regime, rng), diag_first(3, F(2), regime)) for _ in range(2))
    v = check_pair(GroupTag("GL", field, 3), (a, a), (b, smul(F(-1), b)))
    assert v.status == "Obstructed"
    assert v.branches[0].detail.endswith("one g cannot take two values at one determinant")


# the companion matrix of t^3 - 2: tr C = tr C^2 = 0, tr C^3 = 6
COMPANION = mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]], QR)
GL3 = GroupTag("GL", "R", 3)


def test_trace_zero_sample_gets_its_scalar_from_a_higher_power_sum():
    """phi(A) = det(A)^2 T A T^-1: at C the scalar g(2) = 4 is read from
    c^3 = tr(phi(C)^3) / tr(C^3), the first nonzero power sum."""
    auto = make_automorphism(GL3, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(1)), PowerFunc(F(2)))
    b = random_gl(3, QR, random.Random(2))
    v = check_pair(GL3, (COMPANION, apply(auto, COMPANION)), (b, apply(auto, b)))
    assert v.status == "Interpolable" and v.witness.kind == STANDARD
    assert v.witness.g.lookup(F(2)) == F(4)


def test_trace_zero_sample_with_a_nonzero_power_sum_is_obstructed():
    """C -> the companion of t^3 + t - 4: tr(out) = 0 = tr(op(C)) for both
    kinds, but tr(out^2) = -2 while c^2 tr(op(C)^2) = 0."""
    out = mat([[0, 0, 4], [1, 0, -1], [0, 1, 0]], QR)
    v = check_pair(GL3, (COMPANION, out), (COMPANION, out))
    assert v.status == "Obstructed"
    assert v.refusal_reasons() == [
        f"{kind}/id: no scalar values (tr(out^2) = -2 but tr(op(A)^2) = 0)" for kind in (STANDARD, CONTRAGREDIENT)
    ]


def test_irrational_scalar_is_never_refuted():
    """C -> D, the companion of t^3 - 4, and b -> b for b = diag(2, 1/2, 1).
    The automorphism A -> |det A|^(1/3) T A T^-1 of GL_3(R), with
    T = diag(1, 2^(-1/3), 2^(-2/3)), takes both samples to their outputs,
    with g(2) = 2^(1/3) irrational. So the standard branch, whose exact
    data give only c^3 = 2, must stay inconclusive, not refuted."""
    assert check_character(GL3, True, SIGMA_ID, PowerFunc(F(1, 3))).ok
    d = mat([[0, 0, 4], [1, 0, 0], [0, 1, 0]], QR)
    b = mat([[2, 0, 0], [0, F(1, 2), 0], [0, 0, 1]], QR)
    v = check_pair(GL3, (COMPANION, d), (b, b))
    assert v.status == "Inconclusive"
    assert [(br.kind, br.outcome) for br in v.branches] == [(STANDARD, "inconclusive"), (CONTRAGREDIENT, "refuted")]


@pytest.mark.parametrize("det_a", [2, -2], ids=["positive-det", "odd-n"])
def test_negative_real_root_is_refuted_where_g_is_positive(det_a):
    """A, the companion of t^3 - det_a, goes to -D or D (D the companion of
    t^3 - 4), so that det(out) / det A = -2, and b -> b for
    b = diag(2, 1/2, 1). On the standard branch the traces give c^3 = -2,
    whose one real root -2^(1/3) is negative, while g(det A) > 0: 2 is a
    square, and odd n forces g(-1) = 1. So the branch is refuted, though
    the root is irrational."""
    a = mat([[0, 0, det_a], [1, 0, 0], [0, 1, 0]], QR)
    d = mat([[0, 0, 4], [1, 0, 0], [0, 1, 0]], QR)
    b = mat([[2, 0, 0], [0, F(1, 2), 0], [0, 0, 1]], QR)
    v = check_pair(GL3, (a, smul(-det_a // 2, d)), (b, b))
    assert v.status == "Obstructed"
    assert v.refusal_reasons()[0] == (
        f"standard/id: no scalar values (c^3 = -2 has only a negative real root, but g({det_a}) > 0)"
    )


@pytest.mark.parametrize("field", ["R", "C"])
def test_the_witness_table_is_screened_once(field, monkeypatch):
    """`pair_screen` on a pair's two points is the table screen of their
    witness table, so the witness never reaches `table_screen`: with that
    screen made to raise, genuine GL_3 samples still read Interpolable."""
    group = GroupTag("GL", field, 3)
    regime, g = (QR, PowerFunc(F(2))) if field == "R" else (QC, PowerConjFunc(1, 1))
    rng = random.Random(4)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, regime, rng), g)
    a, b = random_gl(3, regime, rng), random_gl(3, regime, rng)

    def screen_again(*args):
        raise RuntimeError("the witness table was screened a second time")

    monkeypatch.setattr(scalarmaps, "table_screen", screen_again)
    v = check_pair(group, (a, apply(auto, a)), (b, apply(auto, b)))
    assert v.status == "Interpolable"


@st.composite
def _automorphisms(draw):
    """A canonical-form automorphism of GL or SL over R or C, n = 3 or 4,
    with its g (for GL) from the power family: |t|^c over R, |z|^(2k) over C."""
    family = draw(st.sampled_from(["GL", "SL"]))
    field = draw(st.sampled_from(["R", "C"]))
    group = GroupTag(family, field, draw(st.integers(3, 4)))
    regime = QR if field == "R" else QC
    kind = draw(st.sampled_from([STANDARD, CONTRAGREDIENT]))
    sigma = draw(st.sampled_from([SIGMA_ID] if field == "R" else [SIGMA_ID, SIGMA_CONJ]))
    g = None
    if family == "GL":
        c = draw(st.sampled_from([1, 2, -1]))
        g = PowerFunc(F(c), draw(st.sampled_from(["same", "flip"]))) if field == "R" else PowerConjFunc(c, c)
    rng = random.Random(draw(st.integers(0, 10**6)))
    t = random_gl(group.n, regime, rng)
    try:
        auto = make_automorphism(group, kind, sigma, t, g)
    except IllegalScalarClass:  # g outside M1r or M2r at this n and kind
        auto = make_automorphism(group, kind, sigma, t)
    sample = random_gl if family == "GL" else random_sl
    return auto, [sample(group.n, regime, rng) for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(_automorphisms())
def test_exact_samples_of_an_automorphism_are_interpolable(drawn):
    auto, (a, b) = drawn
    v = check_pair(auto.group, (a, apply(auto, a)), (b, apply(auto, b)))
    assert v.status == "Interpolable"
    assert equal(apply(v.witness, a), apply(auto, a)) and equal(apply(v.witness, b), apply(auto, b))
