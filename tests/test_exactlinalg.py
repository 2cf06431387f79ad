"""Exact row reduction against sympy as the independent oracle."""
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.errors import SingularMatrix
from localaut.exactlinalg import nullspace, rank, rref, solve
from localaut.matrices import QC, QR, det, inv, mat, mul
from localaut.scalars import GaussRational

entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _sym(rows):
    return sympy.Matrix(len(rows), len(rows[0]), lambda i, j: sympy.Rational(str(rows[i][j])))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_matches_sympy(rows):
    assert rank([list(r) for r in rows]) == _sym(rows).rank()


def test_solve_verifies():
    rng = random.Random(7)
    for _ in range(25):
        a = [[Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(4)] for _ in range(4)]
        x = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        b = [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)]
        got = solve([row[:] for row in a], b)
        if got is None:
            # singular A: confirm with the oracle
            assert _sym(a).rank() < 4
            continue
        assert [sum(a[i][j] * got[j] for j in range(4)) for i in range(4)] == b


def test_solve_inconsistent_is_none():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(a, [Fraction(1), Fraction(3)]) is None


def test_int_rows_are_grid_rows_except_to_solve():
    a = [[2, 4], [1, 3]]
    assert solve(a, [2, 1]) == solve([[Fraction(x) for x in r] for r in a], [Fraction(2), Fraction(1)]) == [1, 0]
    assert rref(a) == ([[1, 0], [0, 1]], [0, 1])
    assert nullspace([[2, 4]]) == [([-2, 1], 1)]
    assert nullspace([[1, 0]], im=[[0, 2]]) == [([0, -2, 1, 0], 1)]


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.choice(((2, 4), (3, 5), (3, 3)))
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        basis = nullspace([row[:] for row in a])
        assert len(basis) == n - rank([row[:] for row in a])
        for v in basis:
            assert all(sum(a[i][j] * v[j] for j in range(n)) == 0 for i in range(m))


def test_rref_idempotent_on_pivots():
    a = [
        [Fraction(2), Fraction(4), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(0), Fraction(0), Fraction(5)],
    ]
    m, pivots = rref([row[:] for row in a])
    assert pivots == [0, 2]
    for r, c in enumerate(pivots):
        assert m[r][c] == 1
        assert all(m[k][c] == 0 for k in range(len(m)) if k != r)


# ---------------------------------------------------------------------------
# the integer-grid kernels against sympy, over Q and over Q(i)

FIELDS = ("Q", "QI")


def _scalar(rng, field, zero_share=0.25):
    """A random scalar: zero with probability zero_share, else nonzero."""
    if rng.random() < zero_share:
        return GaussRational() if field == "QI" else Fraction(0)
    re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
    if field == "Q":
        return re
    return GaussRational(re, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


def _to_sym(x):
    if isinstance(x, GaussRational):
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )
    return sympy.Rational(x.numerator, x.denominator)


def _sym_matrix(rows):
    return sympy.Matrix([[_to_sym(x) for x in r] for r in rows])


def _same(rows, sym):
    """Entry by entry equality of exact rows and a sympy matrix."""
    return (len(rows), len(rows[0])) == sym.shape and all(
        sympy.expand(_to_sym(x) - sym[i, j]) == 0 for i, r in enumerate(rows) for j, x in enumerate(r)
    )


def _deficient(rng, field, nrows, ncols, k):
    """nrows x ncols of rank at most k: one zero row, and nrows - 1 random
    combinations of k random rows."""
    base = [[_scalar(rng, field) for _ in range(ncols)] for _ in range(k)]
    rows = []
    for _ in range(nrows - 1):
        coeffs = [_scalar(rng, field, zero_share=0.4) for _ in range(k)]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), type(coeffs[0])()) for j in range(ncols)])
    rows.insert(rng.randrange(nrows), [type(base[0][0])()] * ncols)
    return rows


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("case", range(6))
def test_rref_matches_sympy(field, case):
    rng = random.Random(f"{field}-{case}")
    nrows, ncols = rng.choice(((4, 4), (5, 6), (6, 4), (3, 7)))
    rank_target = rng.randint(1, min(nrows, ncols))
    rows = _deficient(rng, field, nrows, ncols, rank_target) if case % 2 else [
        [_scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)
    ]
    m, pivots = rref([r[:] for r in rows])
    want, want_pivots = _sym_matrix(rows).rref()
    assert tuple(pivots) == want_pivots
    assert _same(m, want)
    assert rank([r[:] for r in rows]) == len(want_pivots)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("consistent", (True, False))
def test_augmented_rref_matches_sympy(field, consistent):
    rng = random.Random(f"aug-{field}-{consistent}")
    for _ in range(4):
        a = _deficient(rng, field, 5, 4, 2)
        x = [_scalar(rng, field, zero_share=0) for _ in range(4)]
        b = [sum((p * q for p, q in zip(r, x)), type(x[0])()) for r in a]
        if not consistent:
            # a zero row of A with a nonzero right-hand side
            b[next(i for i, r in enumerate(a) if not any(r))] = _scalar(rng, field, zero_share=0)
        aug_rows = [r + [bv] for r, bv in zip(a, b)]
        m, pivots = rref([r[:] for r in aug_rows], aug=1)
        want_a, want_pivots = _sym_matrix(a).rref()
        assert tuple(pivots) == want_pivots
        k = len(pivots)
        assert _same([r[:-1] for r in m], want_a)
        assert any(r[-1] for r in m[k:]) == (not consistent)
        got = solve(a, b)
        if consistent:
            # the pivot rows carry the unique reduced right-hand side
            assert _same(m, _sym_matrix(aug_rows).rref()[0])
            assert [sum((p * q for p, q in zip(r, got)), type(x[0])()) for r in a] == b
        else:
            assert got is None


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_matches_sympy(field):
    rng = random.Random(f"null-{field}")
    for _ in range(4):
        rows = _deficient(rng, field, 5, 6, rng.randint(1, 4))
        basis = nullspace([r[:] for r in rows])
        want = _sym_matrix(rows).nullspace()
        assert len(basis) == len(want)
        for v, w in zip(basis, want):
            assert _same([[x] for x in v], w)


@pytest.mark.parametrize("regime", (QR, QC))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_det_inv_mul_match_sympy(regime, n):
    rng = random.Random(f"{regime}-{n}")
    field = "Q" if regime == QR else "QI"
    for _ in range(3):
        a = mat([[_scalar(rng, field, zero_share=0.1) for _ in range(n)] for _ in range(n)], regime)
        b = mat([[_scalar(rng, field, zero_share=0.1) for _ in range(n)] for _ in range(n)], regime)
        sa, sb = _sym_matrix(a.rows()), _sym_matrix(b.rows())
        assert _same(mul(a, b).rows(), sa * sb)
        d = det(a)
        assert sympy.expand(_to_sym(d) - sa.det(method="bareiss")) == 0
        if d:
            assert _same(inv(a).rows(), sa.inv())
    singular = a.rows()
    singular[-1] = singular[0]
    assert not det(mat(singular, regime))
    with pytest.raises(SingularMatrix):
        inv(mat(singular, regime))
