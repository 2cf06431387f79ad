"""Matrix layer: exact arithmetic, group membership, the one
proportionality rule `ratio` and the two spanning bases.

The frozen rational values below were computed independently with sympy
(det, inv, charpoly, Gram determinants) and then pinned.
"""
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.errors import BadParameters, RegimeMismatch, SingularMatrix
from localaut.matrices import (
    C64,
    QC,
    QR,
    GroupTag,
    build_basis,
    charpoly,
    close,
    coerce_scalar,
    det,
    diag_first,
    equal,
    flat,
    identity,
    inv,
    mat,
    member,
    member_det,
    mul,
    pivot,
    random_gl,
    random_shear,
    random_sl,
    random_su,
    random_unitary,
    ratio,
    scale_first,
    shear,
    smul,
    transpose,
)
from localaut.scalars import GQ_ONE, GaussRational

F = Fraction

M3 = mat([[F(1), F(2), F(0)], [F(1, 2), F(-1), F(3)], [F(0), F(4), F(1, 3)]], QR)


def test_det_frozen():
    assert det(M3) == F(-38, 3)


def test_inv_frozen_first_row():
    got = inv(M3)
    assert [got[0, j] for j in range(3)] == [F(37, 38), F(1, 19), F(-9, 19)]
    assert equal(mul(M3, got), identity(3, QR))


def test_charpoly_frozen_ascending():
    assert charpoly(M3) == [F(38, 3), F(-14), F(-1, 3), F(1)]


def test_det_4x4_matches_bareiss_path():
    rows = [[F(i * 4 + j + 1, (i + j) % 3 + 1) for j in range(4)] for i in range(4)]
    rows[3][3] = F(7, 5)
    assert det(mat(rows, QR)) == F(43023, 20)


def test_singular_inverse_raises():
    s = mat([[F(1), F(2)], [F(2), F(4)]], QR)
    # n = 2 is below the group floor but the matrix layer itself allows it
    with pytest.raises(SingularMatrix):
        inv(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_det_is_multiplicative(s1, s2):
    a = random_gl(3, QR, random.Random(s1))
    b = random_gl(3, QR, random.Random(s2))
    assert det(mul(a, b)) == det(a) * det(b)


def test_transpose_reverses_products():
    rng = random.Random(0)
    a, b = random_gl(3, QR, rng), random_gl(3, QR, rng)
    assert equal(transpose(mul(a, b)), mul(transpose(b), transpose(a)))


def test_gauss_rational_matrices_multiply():
    i = GaussRational(F(0), F(1))
    a = mat([[i, 0, 0], [0, 1, 0], [0, 0, 1]], QC)
    assert det(mul(a, a)) == GaussRational(F(-1))


def test_membership():
    rng = random.Random(5)
    assert member(random_sl(3, QR, rng), GroupTag("SL", "R", 3))
    assert not member(smul(F(2), identity(3, QR)), GroupTag("SL", "R", 3))
    assert member(random_unitary(3, seed=4), GroupTag("Un", "C", 3), tol=1e-9)
    assert member(random_su(3, seed=4), GroupTag("SUn", "C", 3), tol=1e-9)
    assert member(random_gl(3, QC, rng), GroupTag("GL", "C", 3))


def test_member_det_returns_the_det_it_tested():
    rng = random.Random(2)
    a = smul(F(2), random_sl(3, QR, rng))
    assert member_det(a, GroupTag("GL", "R", 3)) == (True, F(8))
    assert member_det(a, GroupTag("SL", "R", 3)) == (False, F(8))
    ok, d = member_det(random_su(3, seed=4), GroupTag("SUn", "C", 3), tol=1e-9)
    assert ok and abs(d - 1) < 1e-9
    assert member_det(random_unitary(3, seed=4), GroupTag("Un", "C", 3), tol=1e-9) == (True, None)


# The samplers before they were built on the grid: Fraction rows through
# mat and mul, drawing from the rng in the same order.


def _reference_shear(n, regime, rng):
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    if regime == QR:
        q = F(rng.choice([1, -1, 2, -2, 1, -1]), rng.choice([1, 1, 2]))
    else:
        q = GaussRational(F(rng.randint(-2, 2)), F(rng.randint(-2, 2))) or GQ_ONE
    rows = [[F(r == c) for c in range(n)] for r in range(n)]
    rows[i][j] = q
    return mat(rows, regime)


def _reference_sl(n, regime, rng, length=3):
    out = identity(n, regime)
    for _ in range(length):
        out = mul(out, _reference_shear(n, regime, rng))
    return out


def _reference_gl(n, regime, rng):
    rows = _reference_sl(n, regime, rng).rows()
    if regime == QR:
        d = rng.choice([F(2), F(3), F(1, 2), F(-1), F(-2), F(4)])
    else:
        d = rng.choice([GaussRational(F(1), F(1)), GaussRational(F(0), F(2)), GaussRational(F(2)), GaussRational(F(1), F(-1))])
    rows[0] = [d * v for v in rows[0]]
    return mat(rows, regime)


SAMPLERS = {
    "shear": (random_shear, _reference_shear),
    "gl": (random_gl, _reference_gl),
    **{f"sl-{k}": (partial(random_sl, length=k), partial(_reference_sl, length=k)) for k in (0, 1, 3, 8)},
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SAMPLERS)), st.integers(3, 7), st.sampled_from((QR, QC)), st.integers(0, 2**32))
def test_grid_built_samplers_match_the_fraction_row_reference(name, n, regime, seed):
    sampler, reference = SAMPLERS[name]
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got, want = sampler(n, regime, rng), reference(n, regime, ref_rng)
    assert got == want and got.entries == want.entries
    assert rng.getstate() == ref_rng.getstate()


def test_shear_is_built_on_its_canonical_grid():
    half = shear(4, QR, 2, 0, F(-3, 2))
    rows = [[F(r == c) for c in range(4)] for r in range(4)]
    rows[2][0] = F(-3, 2)
    assert half == mat(rows, QR) and half.entries == mat(rows, QR).entries
    q = GaussRational(F(1, 2), F(-1, 3))
    rows = [[GaussRational(F(r == c)) for c in range(3)] for r in range(3)]
    rows[0][1] = q
    assert shear(3, QC, 0, 1, q).entries == mat(rows, QC).entries
    with pytest.raises(BadParameters):
        shear(3, QR, 1, 1, F(1))


def _scalars(regime):
    """Small scalars of regime, zero included."""
    q = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
    if regime == QR:
        return q
    if regime == QC:
        return st.builds(GaussRational, q, q)
    return st.builds(lambda x, y: complex(x, y), q.map(float), q.map(float))


@st.composite
def _scaled_cases(draw):
    """(a, d, column) for a random exact GL_n member a and nonzero d."""
    regime = draw(st.sampled_from((QR, QC)))
    a = random_gl(draw(st.integers(3, 6)), regime, random.Random(draw(st.integers(0, 2**32))))
    return a, draw(_scalars(regime).filter(bool)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_scaled_cases())
def test_scale_first_is_the_product_with_diag_first(case):
    a, d, column = case
    dm = diag_first(a.n, d, a.regime)
    want = mul(a, dm) if column else mul(dm, a)
    got = scale_first(a, d, column)
    assert got == want and got.entries == want.entries


@st.composite
def _ratio_cases(draw):
    """(regime, xs, c): xs nonzero, c nonzero, xs a plain sequence or a
    flattened Mat."""
    regime = draw(st.sampled_from((QR, QC, C64)))
    c = draw(_scalars(regime).filter(bool))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        m = mat([draw(st.lists(_scalars(regime), min_size=n, max_size=n)) for _ in range(n)], regime)
        xs = flat(m)
        if not any(xs):
            xs[draw(st.integers(0, n * n - 1))] = coerce_scalar(regime, 1)
        return regime, xs, c
    xs = draw(st.lists(_scalars(regime), min_size=1, max_size=9).filter(any))
    return regime, xs, c


@settings(max_examples=200, deadline=None)
@given(_ratio_cases(), st.data())
def test_ratio_reads_the_scalar_and_nothing_else(case, data):
    regime, xs, c = case
    ys = [c * x for x in xs]
    tol = 1e-6
    got = ratio(ys, xs, tol)
    if regime == C64:
        assert abs(got - c) <= 1e-12 * abs(c)
    else:
        assert got == c
    assert ratio(ys, [coerce_scalar(regime, 0)] * len(xs), tol) is None
    # one entry besides the pivot moved off the line: None
    others = [k for k in range(len(xs)) if k != pivot(xs)]
    if not others:
        return
    j = data.draw(st.sampled_from(others))
    scale = max(1.0, max(abs(complex(x)) for x in xs)) if regime == C64 else 1
    moved = list(ys)
    moved[j] = ys[j] + coerce_scalar(regime, 4 * tol * scale / 3 if regime == C64 else F(1, 3))
    assert ratio(moved, xs, tol) is None
    if regime == C64:
        # within the relative tol of the pivot, the ratio still holds
        moved[j] = ys[j] + tol * scale / 4
        assert abs(ratio(moved, xs, tol) - c) <= 1e-12 * abs(c)


def test_basis_gram_determinants_frozen():
    for kind, want in (("B", F(-693889, 4096)), ("Bprime", F(-1476225, 4096))):
        basis = build_basis(kind, 3)
        assert len(basis.mats) == 9
        want_det = F(1) if kind == "B" else F(-1)
        assert all(det(m) == want_det for m in basis.mats)
        assert det(basis.gram()) == want


def test_basis_coordinates_roundtrip():
    basis = build_basis("B", 3)
    target = basis.mats[4]
    coords = basis.coordinates(target)
    assert coords is not None
    terms = [smul(c, m) for c, m in zip(coords, basis.mats)]
    recon = mat([[sum(t[i, j] for t in terms) for j in range(3)] for i in range(3)], QR)
    assert equal(recon, target)


def test_add_sub_smul():
    a = mat([[F(1), F(2)], [F(3), F(4)]], QR)
    assert equal(smul(F(2), a), mat([[x + x for x in row] for row in a.rows()], QR))
    assert equal(smul(F(-1, 3), smul(F(-3), a)), a)


def test_close_is_for_floats_only():
    a = identity(3, C64)
    assert close(a, a, 1e-12)
    with pytest.raises(RegimeMismatch):
        equal(a, a)
