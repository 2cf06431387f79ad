"""Exact row reduction of integer rows: against sympy over Q, and over Q(i)
against a textbook Gauss-Jordan in GaussRational arithmetic (sympy takes
minutes on Q(i) systems of this size)."""
import random
from fractions import Fraction
from math import lcm

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


def grid_rows(rows):
    """(re, im): int rows spanning the same lines as the field rows, each
    row times the lcm of its denominators; im is None over Q."""
    gauss = isinstance(rows[0][0], GaussRational)
    re, im = [], []
    for r in rows:
        parts = [(x.re, x.im) if gauss else (x, Fraction(0)) for x in r]
        d = lcm(*[p.denominator for pair in parts for p in pair])
        re.append([int(a * d) for a, _ in parts])
        im.append([int(b * d) for _, b in parts])
    return re, im if gauss else None


def field_row(ints, den, gauss):
    """The field scalars ints / den of an int row, re and im interleaved
    over Q(i)."""
    if gauss:
        return [GaussRational(Fraction(ints[j], den), Fraction(ints[j + 1], den)) for j in range(0, len(ints), 2)]
    return [Fraction(x, den) for x in ints]


def field_rows(m, pivots, gauss):
    """The field rows an int rref stands for: each pivot row divided by its
    positive pivot, the rows past the rank as they are."""
    w = 2 if gauss else 1
    return [field_row(row, row[w * pivots[i]] if i < len(pivots) else 1, gauss) for i, row in enumerate(m)]


def ref_rref(rows):
    """Textbook Gauss-Jordan in field scalars, every pivot scaled to 1."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def ref_nullspace(rows):
    """The kernel basis with 1 at each free column, read off ref_rref."""
    m, pivots = ref_rref(rows)
    zero = type(rows[0][0])()
    one = GaussRational(Fraction(1)) if isinstance(zero, GaussRational) else Fraction(1)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [zero] * len(rows[0])
        v[fc] = one
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_matches_sympy(rows):
    assert rank(grid_rows(rows)[0]) == _sym(rows).rank()


def test_solve_verifies():
    rng = random.Random(7)
    for _ in range(25):
        a = [[rng.randint(-10, 10) for _ in range(4)] for _ in range(4)]
        x = [rng.randint(-3, 3) for _ in range(4)]
        b = [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)]
        got = solve([row[:] for row in a], b)
        if got is None:
            # singular A: confirm with the oracle
            assert _sym(a).rank() < 4
            continue
        assert [sum(a[i][j] * got[j] for j in range(4)) for i in range(4)] == b


def test_solve_inconsistent_is_none():
    assert solve([[1, 2], [2, 4]], [1, 3]) is None


def test_int_rows_are_grid_rows_except_to_solve():
    a = [[2, 4], [1, 3]]
    got = solve(a, [2, 1])
    assert got == [1, 0] and all(isinstance(x, Fraction) for x in got)
    assert solve([[2]], [1]) == [Fraction(1, 2)]
    assert rref(a) == ([[1, 0], [0, 1]], [0, 1])
    assert nullspace([[2, 4]]) == [([-2, 1], 1)]
    assert nullspace([[1, 0]], im=[[0, 2]]) == [([0, -2, 1, 0], 1)]


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.choice(((2, 4), (3, 5), (3, 3)))
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        basis = nullspace([row[:] for row in a])
        assert len(basis) == n - rank([row[:] for row in a])
        for v, den in basis:
            assert den > 0
            assert all(sum(a[i][j] * v[j] for j in range(n)) == 0 for i in range(m))


def test_rref_idempotent_on_pivots():
    a = [[2, 4, 1], [1, 2, 3], [0, 0, 5]]
    m, pivots = rref([row[:] for row in a])
    assert pivots == [0, 2]
    for r, c in enumerate(pivots):
        assert m[r][c] > 0
        assert all(m[k][c] == 0 for k in range(len(m)) if k != r)
    assert rref(m) == (m, pivots)


# ---------------------------------------------------------------------------
# the integer-grid kernels against sympy over Q and ref_rref over Q(i)

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


def _fractions(sym):
    return [[Fraction(int(x.p), int(x.q)) for x in sym.row(i)] for i in range(sym.rows)]


def _oracle_rref(rows, field):
    """(rows, pivots) of the reduced echelon form of field rows: sympy over
    Q, ref_rref over Q(i)."""
    if field == "QI":
        return ref_rref(rows)
    want, pivots = _sym_matrix(rows).rref()
    return _fractions(want), list(pivots)


def _oracle_nullspace(rows, field):
    if field == "QI":
        return ref_nullspace(rows)
    return [[r[0] for r in _fractions(v)] for v in _sym_matrix(rows).nullspace()]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("case", range(6))
def test_rref_matches_sympy(field, case):
    rng = random.Random(f"{field}-{case}")
    nrows, ncols = rng.choice(((4, 4), (5, 6), (6, 4), (3, 7)))
    rank_target = rng.randint(1, min(nrows, ncols))
    rows = _deficient(rng, field, nrows, ncols, rank_target) if case % 2 else [
        [_scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)
    ]
    re, im = grid_rows(rows)
    m, pivots = rref(re, im=im)
    want, want_pivots = _oracle_rref(rows, field)
    assert pivots == want_pivots
    assert field_rows(m, pivots, field == "QI") == want
    assert rank(re, im=im) == len(want_pivots)


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
        re, im = grid_rows(aug_rows)
        m, pivots = rref(re, aug=1, im=im)
        got = field_rows(m, pivots, field == "QI")
        want_a, want_pivots = _oracle_rref(a, field)
        assert pivots == want_pivots
        k = len(pivots)
        assert [r[:-1] for r in got] == want_a
        assert any(r[-1] for r in got[k:]) == (not consistent)
        if consistent:
            # the pivot rows carry the unique reduced right-hand side
            assert got == _oracle_rref(aug_rows, field)[0]
        if field == "Q":
            sol = solve([r[:-1] for r in re], [r[-1] for r in re])
            if consistent:
                assert [sum(p * q for p, q in zip(r, sol)) for r in a] == b
            else:
                assert sol is None


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_matches_sympy(field):
    rng = random.Random(f"null-{field}")
    for _ in range(4):
        rows = _deficient(rng, field, 5, 6, rng.randint(1, 4))
        re, im = grid_rows(rows)
        basis = [field_row(v, den, field == "QI") for v, den in nullspace(re, im=im)]
        assert basis == _oracle_nullspace(rows, field)


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
