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
from localaut.gallery import gl_local_not_global
from localaut.localcheck import SampleMap, check_map, check_pair, fit_map, samples_from_automorphism
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
    to_c64,
    transpose,
)
from localaut import localcheck, matrices, scalarmaps
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
    rep = check_map(samples_from_automorphism(auto, [to_c64(random_gl(3, QC, rng)) for _ in range(4)]), seed=1)
    assert rep.counts()["Interpolable"] == 6


def test_numeric_samples_at_one_determinant_are_interpolable():
    """Two C64 GL_3(C) samples of det 2i get the scalar candidates
    4.0000000000000275-1.1e-14j and 4.000000000000012+7.0e-15j, one value
    in floats: the pair screen compares them within FIT_TOL, so the pair
    is not refused as "one g cannot take two values at one determinant"."""
    group = GroupTag("GL", "C", 3)
    rng = random.Random(203)
    t, _ = random_gl(3, QC, rng), random_gl(3, QC, rng)
    a, b = random_gl(3, QC, rng), random_gl(3, QC, rng)
    assert det(a) == det(b) == GaussRational(0, 2)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, t, PowerConjFunc(1, 1))
    v = check_pair(group, *[(to_c64(x), to_c64(apply(auto, x))) for x in (a, b)], seed=0)
    assert v.status == "Interpolable"


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


def _spy(monkeypatch, module, name) -> list:
    """Patch module.name to record each call's arguments and result."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def test_exact_unitary_pair_lifts_to_c64(monkeypatch):
    """Exact QC samples on U_3: the cyclic permutation P and diag(i, -1, i)
    under A -> P conj(A) P^-1 are lifted to C64 and interpolated there."""
    lifts = _spy(monkeypatch, localcheck, "to_c64")
    group = GroupTag("Un", "C", 3)
    i = GaussRational(F(0), F(1))
    p = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]], QC)
    auto = make_automorphism(group, STANDARD, SIGMA_CONJ, p)
    sm = samples_from_automorphism(auto, [p, mat([[i, 0, 0], [0, -1, 0], [0, 0, i]], QC)])
    v = check_pair(group, *sm.samples)
    assert v.status == "Interpolable" and v.witness.sigma == SIGMA_CONJ
    assert len(lifts) == 4


def test_zero_trace_gl_complex_sample_takes_gaussian_roots(monkeypatch):
    """The companion matrix of t^3 - (2 + i) m has tr A = tr A^2 = 0, so its
    scalar g(det A) = |2 + i|^2 m^2 = 5 m^2 is read from
    c^3 = tr(out^3) / tr(A^3), exactly at m = 1 and at m = 1000."""
    group = GroupTag("GL", "C", 3)
    for m in (1, 1000):
        roots = _spy(monkeypatch, localcheck, "_gauss_roots")
        rng = random.Random(0)
        c = mat([[0, 0, GaussRational(F(2 * m), F(m))], [1, 0, 0], [0, 1, 0]], QC)
        auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QC, rng), PowerConjFunc(1, 1))
        sm = samples_from_automorphism(auto, [c, random_gl(3, QC, rng)])
        assert check_pair(group, *sm.samples).status == "Interpolable"
        assert [out for _, out in roots] == [[GaussRational(F(5 * m * m))]]


@pytest.mark.parametrize("m", [10, 10**4])
@pytest.mark.parametrize("n, entries", [(3, (2, -1, -1)), (4, (3, -1, -1, -1))], ids=["gl-c-3", "gl-c-4"])
def test_zero_trace_samples_with_large_entries_take_exact_gaussian_roots(n, entries, m):
    """diag(2m, -m, -m) on GL_3(C) and diag(3m, -m, -m, -m) on GL_4(C) have
    trace 0 and tr A^2 != 0, so the scalar is read from c^g for g = gcd(2, n),
    1 and 2. Those roots are exact at every m, so a genuine automorphism's
    samples are Interpolable however large the entries."""
    group = GroupTag("GL", "C", n)
    rng = random.Random(1)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(n, QC, rng), PowerConjFunc(1, 1))
    a = matrices.diagonal([F(e * m) for e in entries], QC)
    sm = samples_from_automorphism(auto, [a, random_gl(n, QC, rng)])
    assert check_pair(group, *sm.samples).status == "Interpolable"


@pytest.mark.parametrize("c0", [GaussRational(F(-7, 3), F(5, 2)), GaussRational(F(3, 10**40), F(-10**30))])
def test_exact_gaussian_roots_list_the_principal_root_first(c0):
    """For g = 1, 2 and 4 every root of c^g = w in Q(i) is found exactly,
    the principal one first and then its products with i, -1 and -i."""
    for g in (1, 2, 4):
        w = c0**g
        roots = localcheck._gauss_roots(w, g)
        principal = complex(w) ** (1 / g)
        assert abs(complex(roots[0]) - principal) <= 1e-12 * abs(principal)
        units = [u for u in (1, 1j, -1, -1j) if u**g == 1]
        assert roots == [roots[0] * GaussRational(F(int(u.real)), F(int(u.imag))) for u in units]
        assert c0 in roots and all(r**g == w for r in roots)


@pytest.mark.parametrize("regime", [QC, C64])
def test_a_fit_reads_each_spectrum_once_and_forms_op_only_for_a_solve(monkeypatch, regime):
    """On a GL_3(C) pair from the last branch tried (contragredient, conj),
    the fit computes det(tI - A) and det(tI - out) once per sample for all
    4 branches and every candidate scalar, though every branch reads them,
    and forms op(A) only on a branch whose spectra let it reach the
    intertwiner solve."""
    group = GroupTag("GL", "C", 3)
    rng = random.Random(3)
    auto = make_automorphism(group, CONTRAGREDIENT, SIGMA_CONJ, random_gl(3, QC, rng), PowerConjFunc(1, 1))
    samples = [(a, apply(auto, a)) for a in (random_gl(3, QC, rng), random_gl(3, QC, rng))]
    if regime == C64:
        samples = [(to_c64(a), to_c64(out)) for a, out in samples]
    computed = []
    real_charpoly = matrices._compute_charpoly

    def compute_spy(a):
        computed.append(a)
        return real_charpoly(a)

    monkeypatch.setattr(matrices, "_compute_charpoly", compute_spy)
    log = []
    for name in ("op", "simultaneous_similarity", "unitary_intertwiner"):
        real = getattr(localcheck, name)

        def spy(*args, real=real, name=name, **kwargs):
            log.append((name, args))
            return real(*args, **kwargs)

        monkeypatch.setattr(localcheck, name, spy)
    v = fit_map(group, samples)
    assert v.status == "Interpolable" and (v.witness.kind, v.witness.sigma) == (CONTRAGREDIENT, SIGMA_CONJ)
    assert len(v.branches) == 4
    sample_mats = [x for pair in samples for x in pair]
    assert [sum(a is x for a in computed) for x in sample_mats] == [1] * 4
    assert len(computed) == 4
    ops, solved, branch = {}, set(), None
    for name, args in log:
        if name == "op":
            branch = args[1:]
            ops[branch] = ops.get(branch, 0) + 1
        else:
            solved.add(branch)
    assert set(ops) == solved and all(count == 2 for count in ops.values())
    assert (CONTRAGREDIENT, SIGMA_CONJ) in ops and len(ops) < 4


@pytest.mark.parametrize("sigma", [SIGMA_ID, SIGMA_CONJ])
def test_a_map_check_computes_each_sample_kernel_once(monkeypatch, sigma):
    """On an exact 4-sample GL_3(C) contragredient map, each sample's det
    and charpoly are computed once across the map's building and all 6
    pairs, though each sample recurs in 3 pairs; inv(A), which op forms
    for either sigma, is computed once too, and no output is inverted."""
    group = GroupTag("GL", "C", 3)
    rng = random.Random(3)
    auto = make_automorphism(group, CONTRAGREDIENT, sigma, random_gl(3, QC, rng), PowerConjFunc(1, 1))
    mats = [random_gl(3, QC, rng) for _ in range(4)]
    computed = {name: [] for name in ("det", "inv", "charpoly")}
    for name, seen in computed.items():
        real = getattr(matrices, f"_compute_{name}")

        def spy(a, real=real, seen=seen):
            seen.append(a)
            return real(a)

        monkeypatch.setattr(matrices, f"_compute_{name}", spy)
    sm = samples_from_automorphism(auto, mats)
    rep = check_map(sm)
    assert rep.status == "LocallyConsistent" and rep.counts()["Interpolable"] == 6
    inputs, outputs = zip(*sm.samples)
    times = {name: [sum(a is x for a in seen) for x in inputs + outputs] for name, seen in computed.items()}
    assert times["det"] == times["charpoly"] == [1] * 8
    assert times["inv"] == [1] * 4 + [0] * 4


@pytest.mark.parametrize("regime", [QR, QC, C64])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_branch_spectra_follow_from_the_sample_spectra(regime, n):
    """op(A)'s characteristic polynomial read off A's, and out / c's off
    out's, are the polynomials of the matrices themselves: equal in QR and
    QC, within `charpolys_match` in C64."""
    rng = random.Random(n)
    exact = QR if regime == QR else QC
    a, out = random_gl(n, exact, rng), random_gl(n, exact, rng)
    c = F(-7, 3) if exact == QR else GaussRational(F(-7, 3), F(5, 2))
    if regime == C64:
        a, out, c = to_c64(a), to_c64(out), complex(c)
    same = (lambda x, y: x == y) if regime != C64 else matrices.charpolys_match
    for kind in (STANDARD, CONTRAGREDIENT):
        for sigma in (SIGMA_ID, SIGMA_CONJ):
            derived = localcheck._op_charpoly(matrices.charpoly(a), kind, sigma)
            assert same(derived, matrices.charpoly(localcheck.op(a, kind, sigma)))
    scaled = localcheck._scaled_charpoly(matrices.charpoly(out), c)
    assert same(scaled, matrices.charpoly(smul(matrices.scalar_one(regime) / c, out)))


def test_zero_trace_gl_real_sample_takes_both_real_roots(monkeypatch):
    """The companion matrix of t^4 - 3 has tr A^k = 0 for k < 4, so under
    g = |t|^2 its scalar is a real fourth root of g(-3)^4: both 9 and -9."""
    roots = _spy(monkeypatch, localcheck, "real_nth_root_candidates")
    group = GroupTag("GL", "R", 4)
    rng = random.Random(0)
    c = mat([[0, 0, 0, 3], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], QR)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(4, QR, rng), PowerFunc(F(2)))
    sm = samples_from_automorphism(auto, [c, random_gl(4, QR, rng)])
    assert check_pair(group, *sm.samples).status == "Interpolable"
    assert ((F(9**4), 4), [F(9), F(-9)]) in roots


# ---------------------------------------------------------------------------
# fit_map on k >= 3 samples


def test_the_gallery_map_fits_pair_by_pair_and_not_jointly():
    """`gallery gl-local-not-global` scales dets 2, 3 and 6 by 2, 9 and 6:
    each pair of its samples fits an automorphism, but one fit through all
    three must keep 6 = 2 * 3, and |g| breaks that relation."""
    entry = gl_local_not_global(3, seed=0)
    group, samples = entry.group, list(entry.sample_map.samples)
    for i in range(3):
        for j in range(i + 1, 3):
            assert check_pair(group, samples[i], samples[j]).status == "Interpolable", (i, j)
    v = fit_map(group, samples)
    assert (v.status, v.witness) == ("Obstructed", None)
    assert [b.outcome for b in v.branches] == ["refuted", "refuted"]
    standard = v.branches[0]
    assert standard.kind == STANDARD
    assert "|g| breaks the relation {'2': -1, '3': -1, '6': 1} among the dets" in standard.detail


@pytest.mark.parametrize(
    "spec, kind, sigma, g, count",
    [
        (("GL", "R", 3), STANDARD, SIGMA_ID, PowerFunc(F(2)), 4),
        (("GL", "R", 3), CONTRAGREDIENT, SIGMA_ID, PowerFunc(F(1)), 5),
        (("GL", "C", 3), CONTRAGREDIENT, SIGMA_CONJ, PowerConjFunc(1, 1), 5),
        (("GL", "C", 3), STANDARD, SIGMA_ID, None, 6),
        (("SL", "R", 4), CONTRAGREDIENT, SIGMA_ID, None, 4),
        (("SL", "R", 4), STANDARD, SIGMA_ID, None, 6),
    ],
)
def test_one_witness_reproduces_every_sample_of_an_automorphism(spec, kind, sigma, g, count):
    group = GroupTag(*spec)
    regime = group.regimes()[0]
    rng = random.Random(count)
    auto = make_automorphism(group, kind, sigma, random_gl(group.n, regime, rng), g)
    draw = random_sl if group.family == "SL" else random_gl
    samples = [(a, apply(auto, a)) for a in (draw(group.n, regime, rng) for _ in range(count))]
    v = fit_map(group, samples, seed=1)
    assert v.status == "Interpolable"
    assert (v.witness.kind, v.witness.sigma) == (kind, sigma)
    for a, out in samples:
        assert equal(apply(v.witness, a), out)
