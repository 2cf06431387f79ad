"""The canonical integer grid of exact matrices, and every kernel on it
against a naive reference in Fraction / GaussRational arithmetic."""
import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.errors import SingularMatrix
from localaut.matrices import (
    C64,
    QC,
    QR,
    charpoly,
    conj,
    det,
    diagonal,
    equal,
    from_grid,
    grid,
    identity,
    inv,
    mat,
    mul,
    random_gl,
    random_sl,
    scalar_one,
    scalar_zero,
    smul,
    to_c64,
    trace,
    transpose,
)
from localaut.scalars import GaussRational
from localaut.similarity import intertwiner_basis
from test_exactlinalg import ref_nullspace

rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def scalars(draw, regime):
    if regime == QR:
        return draw(rationals)
    return GaussRational(draw(rationals), draw(rationals))


@st.composite
def matrices(draw, regime, n):
    """Random, zero, and (over QC) real matrices with all-zero im grids."""
    shape = draw(st.sampled_from(["random", "random", "random", "zero", "real"]))
    if shape == "zero":
        return mat([[0] * n for _ in range(n)], regime)
    if shape == "real":
        return mat([[draw(rationals) for _ in range(n)] for _ in range(n)], regime)
    return mat([[draw(scalars(regime)) for _ in range(n)] for _ in range(n)], regime)


@st.composite
def pairs(draw):
    regime = draw(st.sampled_from([QR, QC]))
    n = draw(st.integers(1, 4))
    return draw(matrices(regime, n)), draw(matrices(regime, n))


def _ints(g):
    _, re, im = g
    return re + (im or ())


# ---------------------------------------------------------------------------
# the grid


@settings(max_examples=60, deadline=None)
@given(pairs(), st.integers(-7, 7).filter(bool))
def test_grids_are_canonical_however_they_are_built(ab, k):
    a, _ = ab
    den, re, im = grid(a)
    assert den > 0 and gcd(den, *_ints(grid(a))) == 1
    assert (im is None) == (a.regime == QR)
    # scaled, non-reduced grids come back to the same canonical grid
    b = from_grid(a.regime, k * den, [k * x for x in re], None if im is None else [k * x for x in im])
    assert grid(b) == grid(a)
    assert b == a and hash(b) == hash(a) and equal(b, a)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_entries_round_trip(ab):
    a, _ = ab
    b = from_grid(a.regime, *grid(a))
    assert b.entries == a.entries
    assert b.rows() == a.rows()
    assert all(b[i, j] == a.entries[i][j] for i in range(a.n) for j in range(a.n))
    assert mat(b.rows(), a.regime) == a


@settings(max_examples=60, deadline=None)
@given(pairs(), st.booleans())
def test_equality_and_hash_agree_with_the_entries(ab, same):
    a, b = ab
    if same:
        b = mat(a.rows(), a.regime)
    assert (a == b) == (a.entries == b.entries) == equal(a, b)
    if a == b:
        assert hash(a) == hash(b)


def test_zero_matrix_grids():
    for regime in (QR, QC):
        z = from_grid(regime, 5, [0] * 4, None if regime == QR else [0] * 4)
        assert grid(z) == (1, (0,) * 4, None if regime == QR else (0,) * 4)
        assert z == mat([[0, 0], [0, 0]], regime)


def test_matrices_stay_immutable():
    a = mat([[1, 2], [3, 4]], QR)
    memo = (("_det", 0), ("_inv", None), ("_charpoly", ()))
    for name, value in (("n", 3), ("regime", QC), ("entries", ()), ("_grid", None), *memo):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, value)
    with pytest.raises(FrozenInstanceError):
        del a.n


@pytest.mark.parametrize("regime", [QR, QC, C64])
def test_matrices_copy_and_pickle(regime):
    a = mul(mat([[1, 2], [Fraction(3, 4), 5]], regime), mat([[1, 0], [1, 1]], regime))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and b.entries == a.entries


MEMO = ("_det", "_inv", "_charpoly")


def _fresh_copies(a):
    """Copies rebuilt through __init__, which start without a memo."""
    copies = [copy.copy(a), pickle.loads(pickle.dumps(a))]
    assert all(getattr(b, slot, None) is None for b in copies for slot in MEMO)
    return copies


@pytest.mark.parametrize("regime", [QR, QC, C64])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_memoized_kernels_equal_those_of_a_fresh_copy(regime, n):
    """det, inv and charpoly store their first value on the matrix, return
    it on later calls, and equal what a copy without the memo computes."""
    a = random_gl(n, QR if regime == QR else QC, random.Random(f"memo-{regime}-{n}"))
    if regime == C64:
        a = to_c64(a)
    values = det(a), inv(a), charpoly(a)
    assert det(a) is values[0] and inv(a) is values[1] and charpoly(a) == values[2]
    for b in _fresh_copies(a):
        assert (det(b), inv(b), charpoly(b)) == values


@pytest.mark.parametrize("regime", [QR, QC, C64])
def test_a_mutated_charpoly_leaves_the_memo_unchanged(regime):
    a = mat([[2, 1, 0], [0, 1, 3], [1, 0, 1]], regime)
    p = charpoly(a)
    want = list(p)
    p[0] = p[1] = scalar_zero(regime)
    p.append(scalar_one(regime))
    assert charpoly(a) == want and charpoly(a) is not charpoly(a)


@pytest.mark.parametrize("regime", [QR, QC, C64])
@pytest.mark.parametrize("n", [3, 4])
def test_a_singular_inverse_raises_on_every_call(regime, n):
    a = mat([[i + j for j in range(n)] for i in range(n - 1)] + [[0] * n], regime)
    for _ in range(2):
        with pytest.raises(SingularMatrix):
            inv(a)
    assert getattr(a, "_inv", None) is None


def test_no_exact_kernel_builds_the_entries_view():
    for regime in (QR, QC):
        qc = regime == QC
        a = from_grid(
            regime, 3,
            [2, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 2, 0, 1],
            [0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 3, 0, 0, 1] if qc else None,
        )
        b = from_grid(regime, 2, [1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1], grid(a)[2])
        small = from_grid(regime, 1, [2, 1, 1, 1], [0, 1, 0, 0] if qc else None)
        for m in (mul(a, b), smul(Fraction(2, 3), a), conj(a), transpose(a), inv(a), inv(small)):
            assert m._entries is None
        for kernel in (trace, det, charpoly):
            kernel(a)
        equal(a, b), a == b, hash(a)
        assert a._entries is None and b._entries is None


# ---------------------------------------------------------------------------
# the kernels against naive scalar arithmetic


def _ref_mul(a, b):
    n, zero = a.n, scalar_zero(a.regime)
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]


def _ref_det(rows, zero):
    """Laplace expansion along the first row."""
    if not rows:
        return zero + 1 if isinstance(zero, Fraction) else GaussRational(Fraction(1))
    out = zero
    for j, x in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = x * _ref_det(minor, zero)
        out = out + term if j % 2 == 0 else out - term
    return out


def _ref_charpoly(a):
    """det(tI - A): the coefficient of t^(n-k) is (-1)^k times the sum of
    the principal k-minors."""
    n, zero = a.n, scalar_zero(a.regime)
    desc = []
    for k in range(n + 1):
        s = zero
        for idx in combinations(range(n), k):
            s = s + _ref_det([[a.entries[i][j] for j in idx] for i in idx], zero)
        desc.append(s if k % 2 == 0 else -s)
    return desc[::-1]


def _conj(x):
    return x.conjugate() if isinstance(x, GaussRational) else x


@settings(max_examples=80, deadline=None)
@given(pairs(), scalars(QC))
def test_kernels_match_the_scalar_reference(ab, c):
    a, b = ab
    n, regime = a.n, a.regime
    zero = scalar_zero(regime)
    if regime == QR:
        c = c.re
    assert mul(a, b).entries == tuple(map(tuple, _ref_mul(a, b)))
    assert smul(c, a).rows() == [[c * x for x in r] for r in a.entries]
    assert conj(a).rows() == [[_conj(x) for x in r] for r in a.entries]
    assert transpose(a).rows() == [list(r) for r in zip(*a.entries)]
    assert trace(a) == sum((a.entries[i][i] for i in range(n)), zero)
    d = _ref_det(a.rows(), zero)
    assert det(a) == d
    assert charpoly(a) == _ref_charpoly(a)
    if d:
        assert _ref_mul(a, inv(a)) == [[scalar_one(regime) if i == j else zero for j in range(n)] for i in range(n)]
    else:
        with pytest.raises(SingularMatrix):
            inv(a)


def _ref_intertwiners(pairs):
    """The Kronecker system of S A_i = B_i S over every pair in field
    scalars, solved by the textbook Gauss-Jordan of the row-reduction
    tests."""
    n, regime = pairs[0][0].n, pairs[0][0].regime
    zero = scalar_zero(regime)
    rows = []
    for a, b in pairs:
        for p in range(n):
            for q in range(n):
                row = [zero] * (n * n)
                for k in range(n):
                    row[p * n + k] = row[p * n + k] + a.entries[k][q]
                    row[k * n + q] = row[k * n + q] - b.entries[p][k]
                rows.append(row)
    return [mat([v[i * n:(i + 1) * n] for i in range(n)], regime) for v in ref_nullspace(rows)]


@st.composite
def derogatory(draw, regime, n):
    """Samples whose Krylov chains from e_1 seldom span: the identity, a
    scalar, a diagonal with a repeated entry, one shear and a product of
    three shears (both unipotent); and random matrices, mostly cyclic."""
    shapes = ["identity", "scalar", "diagonal", "random"] + (["shear", "unipotent"] if n > 1 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "identity":
        return identity(n, regime)
    if shape == "scalar":
        return smul(draw(rationals.filter(bool)), identity(n, regime))
    if shape == "diagonal":
        values = [draw(scalars(regime)) for _ in range(n - 1)]
        return diagonal([*values, values[0] if values else 1], regime)
    if shape == "random":
        return draw(matrices(regime, n))
    return random_sl(n, regime, random.Random(draw(st.integers(0, 999))), 1 if shape == "shear" else 3)


@st.composite
def pair_lists(draw):
    """1 to 3 pairs at n = 1..5; conjugated pairs (A_i, T A_i T^-1) share
    T, so their space is at least one-dimensional."""
    regime = draw(st.sampled_from([QR, QC]))
    n = draw(st.integers(1, 5))
    samples = draw(st.lists(derogatory(regime, n), min_size=1, max_size=3))
    if draw(st.booleans()):
        t = random_gl(n, regime, random.Random(draw(st.integers(0, 999)))) if n > 1 else mat([[3]], regime)
        return [(a, mul(mul(t, a), inv(t))) for a in samples]
    return [(a, draw(derogatory(regime, n))) for a in samples]


@settings(max_examples=60, deadline=None)
@given(pair_lists())
def test_intertwiner_basis_matches_the_scalar_reference(pairs):
    got = intertwiner_basis(pairs)
    assert got == _ref_intertwiners(pairs)
    for s in got:
        assert all(mul(s, a) == mul(b, s) for a, b in pairs)


def _sympy_charpoly(a):
    """det(tI - A) by sympy, ascending, as Fraction / GaussRational."""
    import sympy

    def to_sympy(x):
        if isinstance(x, Fraction):
            return sympy.Rational(x.numerator, x.denominator)
        return to_sympy(x.re) + sympy.I * to_sympy(x.im)

    def from_sympy(z):
        re, im = (Fraction(int(sympy.fraction(p)[0]), int(sympy.fraction(p)[1])) for p in z.as_real_imag())
        return re if a.regime == QR else GaussRational(re, im)

    m = sympy.Matrix([[to_sympy(x) for x in r] for r in a.entries])
    return [from_sympy(sympy.expand(c)) for c in reversed(m.charpoly().all_coeffs())]


@pytest.mark.parametrize("regime", [QR, QC])
@pytest.mark.parametrize("n", [5, 6])
def test_charpoly_matches_sympy_with_denominators(regime, n):
    """Faddeev-LeVerrier on the grid divides by k exactly; entries over
    denominators up to 12 put den^k far from 1 in every coefficient."""
    rng = random.Random(10 * n + (regime == QC))
    q = lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))
    rows = [[q() if regime == QR else GaussRational(q(), q()) for _ in range(n)] for _ in range(n)]
    a = mat(rows, regime)
    assert grid(a)[0] > 1
    assert charpoly(a) == _sympy_charpoly(a)
