"""Matrix layer: exact arithmetic, group membership, the distinguished
idempotent shifts and the two spanning bases.

The frozen rational values below were computed independently with sympy
(det, inv, charpoly, Gram determinants) and then pinned.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.errors import BadIdempotent, BadParameters, RegimeMismatch, SingularMatrix
from localaut.matrices import (
    C64,
    QC,
    QR,
    GroupTag,
    add,
    build_basis,
    charpoly,
    close,
    det,
    equal,
    identity,
    inv,
    is_rank_one_idempotent,
    make_E,
    mat,
    member,
    member_det,
    mul,
    poly_from_roots,
    random_gl,
    random_sl,
    random_su,
    random_unitary,
    rank_one_idempotent,
    rank_one_with_trace,
    smul,
    sub,
    trace,
    transpose,
)
from localaut.scalars import GaussRational

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


def test_rank_one_idempotent_requires_unit_pairing():
    p = rank_one_idempotent([1, 0, 0], [1, 2, 3], QR)
    assert is_rank_one_idempotent(p.matrix())
    with pytest.raises(BadIdempotent):
        rank_one_idempotent([1, 0, 0], [0, 1, 0], QR)


def test_make_E_spectrum_and_det():
    p = rank_one_idempotent([1, 2, 0], [1, 0, F(1, 2)], QR).matrix()
    e = make_E(p)
    assert det(e) == 1
    assert charpoly(e) == poly_from_roots([F(1, 4), F(2), F(2)], QR)


def test_make_E_rejects_non_idempotents():
    with pytest.raises(BadIdempotent):
        make_E(identity(3, QR))


def test_rank_one_with_trace_hits_target():
    rng = random.Random(11)
    c = random_sl(3, QR, rng)
    for target in (F(1), F(-2), F(5, 3)):
        p = rank_one_with_trace(c, target).matrix()
        assert trace(mul(p, c)) == target
        assert is_rank_one_idempotent(p)


def test_rank_one_with_trace_rejects_scalars():
    with pytest.raises(BadParameters):
        rank_one_with_trace(smul(F(3), identity(3, QR)), F(1))
    with pytest.raises(RegimeMismatch):
        rank_one_with_trace(identity(3, C64), 1.0)


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
    recon = identity(3, QR)
    recon = smul(F(0), recon)
    for c, m in zip(coords, basis.mats):
        recon = add(recon, smul(c, m))
    assert equal(recon, target)


def test_add_sub_smul():
    a = mat([[F(1), F(2)], [F(3), F(4)]], QR)
    assert equal(sub(add(a, a), a), a)
    assert equal(smul(F(2), a), add(a, a))


def test_close_is_for_floats_only():
    a = identity(3, C64)
    assert close(a, a, 1e-12)
    with pytest.raises(RegimeMismatch):
        equal(a, a)
