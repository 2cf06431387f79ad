"""Exact and approximate matrix core.

Matrices are immutable, square, regime-homogeneous. Regimes:
  QR  - rational entries (Fraction), exact
  QC  - Gaussian rational entries, exact
  C64 - machine complex entries, tolerance-based

Exact regimes never see a float; C64 delegates numerics to numpy. Shears
I + q E_ij, and so the seeded GL and SL samplers built from them, are
exact-only (a numeric sample is an exact one lifted with to_c64) and made
straight on their canonical integer grid, never from Fraction rows: a
product of shears is one running grid with a column operation per shear.
"""
from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import add as _iadd, mul as _imul, neg as _ineg

from .errors import BadParameters, RegimeMismatch, SingularMatrix
from .exactlinalg import rref
from .scalars import (
    CHARPOLY_RTOL,
    DEFAULT_TOL,
    GQ_ONE,
    GQ_ZERO,
    GaussRational,
    clear_row,
    gauss,
    rational,
)

QR = "QR"
QC = "QC"
C64 = "C64"
REGIMES = (QR, QC, C64)

FAMILIES = ("GL", "SL", "Un", "SUn")


@dataclass(frozen=True)
class GroupTag:
    family: str
    field: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadParameters(f"unknown family {self.family!r}")
        if self.field not in ("R", "C"):
            raise BadParameters(f"field must be R or C, got {self.field!r}")
        if self.n < 3:
            raise BadParameters("n >= 3 is required throughout")
        if self.family in ("Un", "SUn") and self.field != "C":
            raise BadParameters(f"{self.family} lives over C")

    @property
    def unitary(self) -> bool:
        return self.family in ("Un", "SUn")

    def regimes(self) -> tuple[str, ...]:
        return (QR,) if self.field == "R" else (QC, C64)


_ZERO = {QR: Fraction(0), QC: GQ_ZERO, C64: complex(0)}
_ONE = {QR: Fraction(1), QC: GQ_ONE, C64: complex(1)}


def scalar_zero(regime: str):
    return _ZERO[regime]


def scalar_one(regime: str):
    return _ONE[regime]


def coerce_scalar(regime: str, v):
    if regime == QR:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise RegimeMismatch(f"QR entries must be rational, got {type(v).__name__}")
    if regime == QC:
        if isinstance(v, GaussRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussRational(Fraction(v))
        raise RegimeMismatch(f"QC entries must be Gaussian rational, got {type(v).__name__}")
    if regime == C64:
        if isinstance(v, (int, float, complex)):
            return complex(v)
        if isinstance(v, Fraction):
            return complex(float(v))
        if isinstance(v, GaussRational):
            return complex(v)
        raise RegimeMismatch(f"C64 entries must be numeric, got {type(v).__name__}")
    raise BadParameters(f"unknown regime {regime!r}")


def scalar_close(x, y, tol: float = DEFAULT_TOL) -> bool:
    """x == y in the exact regimes, |x - y| <= tol in C64."""
    return abs(x - y) <= tol if isinstance(x, complex) else x == y


_set = object.__setattr__


class Mat:
    """An immutable n x n matrix of one regime.

    In QR and QC its exact form is one canonical integer grid (den, re, im):
    entries = (re + i im) / den for the tuples re and im of n^2 ints laid
    out row by row, with den > 0 and gcd(den, every int) = 1; im is None
    over Q. The grid is unique, so ==, hash, equal and close compare grids.
    `entries` is a view built on first use, and a Mat made from entries is
    cleared to its grid when a kernel first needs it. C64 keeps entries only.

    `det`, `inv` and `charpoly` are memoized on the matrix: the first call
    stores its value in a private slot, left unset until then, and later
    calls on the same object return it. The kernels are pure and the matrix
    is immutable, so the memo never changes a result; copies and pickles
    rebuild through __init__ without it.
    """

    __slots__ = ("n", "regime", "_entries", "_grid", "_det", "_inv", "_charpoly")

    def __init__(self, n: int, regime: str, entries: tuple):
        if regime not in REGIMES:
            raise BadParameters(f"unknown regime {regime!r}")
        if len(entries) != n or any(len(r) != n for r in entries):
            raise BadParameters("entries must form an n x n square")
        _set(self, "n", n)
        _set(self, "regime", regime)
        _set(self, "_entries", entries)
        _set(self, "_grid", None)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            den, re, im = self._grid
            if im is None:
                flat = tuple([rational(x, den) for x in re])
            else:
                flat = tuple([gauss(x, y, den) for x, y in zip(re, im)])
            _set(self, "_entries", tuple(_split(flat, self.n)))
        return self._entries

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def rows(self) -> list[list]:
        return [list(r) for r in self.entries]

    def _key(self):
        return self.entries if self.regime == C64 else grid(self)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.regime == other.regime and self._key() == other._key()

    def __hash__(self):
        return hash((self.n, self.regime, self._key()))

    def __repr__(self):
        return f"Mat(n={self.n!r}, regime={self.regime!r}, entries={self.entries!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Mat, (self.n, self.regime, self.entries)


def grid(a: Mat) -> tuple:
    """The canonical integer grid (den, re, im) of an exact matrix, cleared
    from its entries on first use: over the lcm of their denominators the
    content is 1, as each entry is in lowest terms."""
    if a._grid is None:
        if a.regime == C64:
            raise RegimeMismatch("C64 matrices have no integer grid")
        flat, den = clear_row([x for r in a._entries for x in r])
        _set(a, "_grid", (den, *_unzip(flat, a.regime)))
    return a._grid


def from_grid(regime: str, den: int, re, im=None) -> Mat:
    """The exact matrix (re + i im) / den of n^2 ints laid out row by row,
    den nonzero and im None over Q."""
    return _canon(isqrt(len(re)), regime, den, tuple(re), None if im is None else tuple(im))


def _split(xs, n: int) -> list:
    """The rows of n^2 values laid out row by row."""
    return [xs[i:i + n] for i in range(0, n * n, n)]


def _transposed(xs: tuple, n: int) -> tuple:
    return tuple(chain.from_iterable(xs[j::n] for j in range(n)))


def _unzip(flat: list, regime: str) -> tuple:
    """(re, im) of ints that hold (re, im) pairs laid flat over Q(i)."""
    return (tuple(flat), None) if regime == QR else (tuple(flat[0::2]), tuple(flat[1::2]))


def _grid_mat(n: int, regime: str, grid: tuple) -> Mat:
    """The Mat of a grid that is already canonical."""
    m = object.__new__(Mat)
    _set(m, "n", n)
    _set(m, "regime", regime)
    _set(m, "_entries", None)
    _set(m, "_grid", grid)
    return m


def _canon(n: int, regime: str, den: int, re: tuple, im: tuple | None = None) -> Mat:
    """The Mat (re + i im) / den for den nonzero, its grid reduced by the
    content and signed so that den > 0."""
    if den != 1:
        g = gcd(den, *re, *(im or ()))
        if den < 0:
            g = -g
        if g != 1:
            den, re = den // g, tuple([x // g for x in re])
            if im is not None:
                im = tuple([x // g for x in im])
    return _grid_mat(n, regime, (den, re, im))


def mat(rows, regime: str) -> Mat:
    n = len(rows)
    ent = tuple(tuple(coerce_scalar(regime, v) for v in r) for r in rows)
    return Mat(n, regime, ent)


def identity(n: int, regime: str) -> Mat:
    if regime == C64:
        return Mat(n, C64, tuple(tuple(complex(i == j) for j in range(n)) for i in range(n)))
    eye = tuple(int(i == j) for i in range(n) for j in range(n))
    return _grid_mat(n, regime, (1, eye, None if regime == QR else (0,) * (n * n)))


def diagonal(values, regime: str) -> Mat:
    """The diagonal matrix with the given diagonal entries."""
    zero = scalar_zero(regime)
    return mat([[v if i == j else zero for j in range(len(values))] for i, v in enumerate(values)], regime)


def diag_first(n: int, d, regime: str) -> Mat:
    """diag(d, 1, ..., 1): determinant d, the scalar-character probe."""
    return diagonal([d] + [1] * (n - 1), regime)


def _check_same(a: Mat, b: Mat):
    if a.regime != b.regime or a.n != b.n:
        raise RegimeMismatch("operands must share size and regime")


def smul(c, a: Mat) -> Mat:
    c = coerce_scalar(a.regime, c)
    if a.regime == C64:
        return Mat(a.n, C64, tuple(tuple(c * x for x in r) for r in a.entries))
    den, re, im = grid(a)
    if im is None:
        return _canon(a.n, QR, den * c.denominator, tuple([c.numerator * x for x in re]))
    q, p, s = c.q, c.p, c.s
    return _canon(a.n, QC, den * q, *map(tuple, _gauss_times(p, s, re, im)))


def _gauss_times(p: int, s: int, re, im) -> tuple:
    """(p + i s)(re + i im) of int sequences, as the lists (re, im)."""
    pairs = list(zip(re, im))
    return [p * x - s * y for x, y in pairs], [p * y + s * x for x, y in pairs]


def scale_first(a: Mat, d, column: bool = False) -> Mat:
    """diag(d, 1, ..., 1) a, or a diag(d, 1, ..., 1) when column is set:
    row (column) 0 of a times d, exact-only, built on a's grid: for
    d = (p + i s) / r every other entry is scaled by r and the line by
    p + i s, and one gcd reduces the result."""
    d = coerce_scalar(a.regime, d)
    n = a.n
    den, re, im = grid(a)
    r, p, s = (d.denominator, d.numerator, 0) if im is None else (d.q, d.p, d.s)
    line = slice(0, None, n) if column else slice(0, n)
    out_re = [r * x for x in re]
    if im is None:
        out_re[line] = [p * x for x in re[line]]
        return _canon(n, QR, den * r, tuple(out_re))
    out_im = [r * x for x in im]
    out_re[line], out_im[line] = _gauss_times(p, s, re[line], im[line])
    return _canon(n, QC, den * r, tuple(out_re), tuple(out_im))


def _dots(xs, ys) -> tuple:
    """The integer products of the rows xs with the columns ys, row by row."""
    return tuple([sum(map(_imul, x, y)) for x in xs for y in ys])


def mul(a: Mat, b: Mat) -> Mat:
    """a b. In the exact regimes each entry is one integer dot product of
    the two grids (two over Q(i), for the re and im parts) over da db,
    and one gcd reduces the product's grid."""
    _check_same(a, b)
    n = a.n
    if a.regime == C64:
        bt = tuple(zip(*b.entries))
        rows = []
        for ar in a.entries:
            row = []
            for bc in bt:
                acc = ar[0] * bc[0]
                for k in range(1, n):
                    acc = acc + ar[k] * bc[k]
                row.append(acc)
            rows.append(tuple(row))
        return Mat(n, C64, tuple(rows))
    (da, ra, ia), (db, rb, ib) = grid(a), grid(b)
    cols = [rb[j::n] for j in range(n)]
    if ia is None:
        return _canon(n, QR, da * db, _dots(_split(ra, n), cols))
    # rows (re | im) of a against columns (re | -im) and (im | re) of b
    xs = [r + i for r, i in zip(_split(ra, n), _split(ia, n))]
    im_cols = [ib[j::n] for j in range(n)]
    re_cols = [c + tuple([-x for x in d]) for c, d in zip(cols, im_cols)]
    return _canon(n, QC, da * db, _dots(xs, re_cols), _dots(xs, [d + c for c, d in zip(cols, im_cols)]))


def transpose(a: Mat) -> Mat:
    if a.regime == C64:
        return Mat(a.n, C64, tuple(zip(*a.entries)))
    den, re, im = grid(a)
    return _grid_mat(a.n, a.regime, (den, _transposed(re, a.n), im and _transposed(im, a.n)))


def conj(a: Mat) -> Mat:
    """Entrywise conjugation (identity on QR)."""
    if a.regime == QR:
        return a
    if a.regime == C64:
        return Mat(a.n, C64, tuple(tuple(x.conjugate() for x in r) for r in a.entries))
    den, re, im = grid(a)
    return _grid_mat(a.n, QC, (den, re, tuple([-x for x in im])))


def conj_transpose(a: Mat) -> Mat:
    return transpose(conj(a))


def apply_sigma(a: Mat, sigma: str) -> Mat:
    if sigma == "id":
        return a
    if sigma == "conj":
        return conj(a)
    raise BadParameters(f"sigma must be 'id' or 'conj', got {sigma!r}")


def trace(a: Mat):
    if a.regime == C64:
        return sum((a.entries[i][i] for i in range(a.n)), complex(0))
    den, re, im = grid(a)
    diag = slice(None, None, a.n + 1)
    return rational(sum(re[diag]), den) if im is None else gauss(sum(re[diag]), sum(im[diag]), den)


def equal(a: Mat, b: Mat) -> bool:
    _check_same(a, b)
    if a.regime == C64:
        raise RegimeMismatch("use close(a, b, tol) in the C64 regime")
    return grid(a) == grid(b)


def close(a: Mat, b: Mat, tol: float = DEFAULT_TOL) -> bool:
    _check_same(a, b)
    if a.regime != C64:
        return grid(a) == grid(b)
    return max(
        abs(x - y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)
    ) <= tol


def det(a: Mat):
    """det a, computed once per matrix."""
    d = getattr(a, "_det", None)
    if d is None:
        d = _compute_det(a)
        _set(a, "_det", d)
    return d


def _compute_det(a: Mat):
    if a.regime == C64:
        import numpy as np

        return complex(np.linalg.det(_to_numpy(a)))
    return _det_bareiss(a)


def _det_bareiss(a: Mat):
    """Fraction-free determinant of the grid: det a = det(re + i im) / den^n,
    with det(re + i im) from one Bareiss elimination over Z, or over Z[i] on
    (re, im) int pairs, where every division by the previous pivot is exact."""
    n = a.n
    den, re, im = grid(a)
    mr = [list(r) for r in _split(re, n)]
    mi = None if im is None else [list(r) for r in _split(im, n)]
    sign, qr, qi, qn = 1, 1, 0, 1  # qr + i qi: the previous pivot, qn its norm
    for k in range(n - 1):
        if not (mr[k][k] or (mi and mi[k][k])):
            piv = next((i for i in range(k + 1, n) if mr[i][k] or (mi and mi[i][k])), None)
            if piv is None:
                return scalar_zero(a.regime)
            for m in filter(None, (mr, mi)):
                m[k], m[piv] = m[piv], m[k]
            sign = -sign
        kr, pr = mr[k], mr[k][k]
        if mi is None:
            for ir in mr[k + 1:]:
                f = ir[k]
                for j in range(k + 1, n):
                    ir[j] = (ir[j] * pr - f * kr[j]) // qr
            qr = pr
            continue
        ki, pi = mi[k], mi[k][k]
        for ir, ii in zip(mr[k + 1:], mi[k + 1:]):
            fr, fi = ir[k], ii[k]
            for j in range(k + 1, n):
                xr = ir[j] * pr - ii[j] * pi - fr * kr[j] + fi * ki[j]
                xi = ir[j] * pi + ii[j] * pr - fr * ki[j] - fi * kr[j]
                # exact division by the previous pivot: times its conjugate, over its norm
                ir[j] = (xr * qr + xi * qi) // qn
                ii[j] = (xi * qr - xr * qi) // qn
        qr, qi, qn = pr, pi, pr * pr + pi * pi
    last = sign * mr[n - 1][n - 1]
    return rational(last, den**n) if mi is None else gauss(last, sign * mi[n - 1][n - 1], den**n)


def inv(a: Mat) -> Mat:
    """a^-1, computed once per matrix; a singular a raises SingularMatrix on
    every call."""
    b = getattr(a, "_inv", None)
    if b is None:
        b = _compute_inv(a)
        _set(a, "_inv", b)
    return b


def _compute_inv(a: Mat) -> Mat:
    if a.regime == C64:
        import numpy as np

        m = _to_numpy(a)
        if not abs(np.linalg.det(m)) >= 1e-300:  # a NaN determinant is singular too
            raise SingularMatrix("matrix is numerically singular")
        return _from_numpy(np.linalg.inv(m))
    return _inv_small(a) if a.n == 3 else _inv_rref(a)


def _inv_rref(a: Mat) -> Mat:
    """rref of [M | den I] on grid rows is [I | a^-1] for a = M / den."""
    n = a.n
    den, re, im = grid(a)
    rows = [list(r) + [den if i == j else 0 for j in range(n)] for i, r in enumerate(_split(re, n))]
    m, pivots = rref(rows, aug=n, im=None if im is None else [list(r) + [0] * n for r in _split(im, n)])
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    w = 1 if im is None else 2
    # reduced row i reads p_i e_i | p_i (row i of a^-1), p_i a positive int
    dens = [m[i][w * i] for i in range(n)]
    top = lcm(*dens)
    flat = [x * (top // d) for i, d in enumerate(dens) for x in m[i][w * n:]]
    return _canon(n, a.regime, top, *_unzip(flat, a.regime))


def _inv_small(a: Mat) -> Mat:
    """Adjugate inverse for n = 3 on the grid: a = M / den has
    a^-1 = den adj(M) / det(M), with adj(M) over Z, or over Z[i] on
    (re, im) int pairs."""
    den, re, im = grid(a)
    if im is None:
        e, zero, times, plus, neg = _split(re, 3), 0, _imul, _iadd, _ineg
    else:
        e, zero = [list(zip(r, s)) for r, s in zip(_split(re, 3), _split(im, 3))], (0, 0)

        def times(x, y):
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def plus(x, y):
            return x[0] + y[0], x[1] + y[1]

        def neg(x):
            return -x[0], -x[1]

    idx = ((1, 2), (0, 2), (0, 1))

    def cof(i, j):
        r1, r2 = idx[i]
        c1, c2 = idx[j]
        m = plus(times(e[r1][c1], e[r2][c2]), neg(times(e[r1][c2], e[r2][c1])))
        return m if (i + j) % 2 == 0 else neg(m)

    adj = [[cof(j, i) for j in range(3)] for i in range(3)]
    d = times(e[0][0], adj[0][0])
    for k in range(1, 3):
        d = plus(d, times(e[0][k], adj[k][0]))
    if d == zero:
        raise SingularMatrix("matrix is singular")
    flat = [x for r in adj for x in r]
    if im is None:
        return _canon(3, QR, d, tuple([den * x for x in flat]))
    # den adj / d = den adj conj(d) / |d|^2
    dr, di = d
    re = tuple([den * (x * dr + y * di) for x, y in flat])
    return _canon(3, QC, dr * dr + di * di, re, tuple([den * (y * dr - x * di) for x, y in flat]))


def _to_numpy(a: Mat):
    import numpy as np

    return np.array([[complex(x) for x in r] for r in a.entries], dtype=complex)


def _from_numpy(m) -> Mat:
    return Mat(len(m), C64, tuple(tuple(complex(x) for x in r) for r in m))


def to_c64(a: Mat) -> Mat:
    return mat(a.entries, C64)


def charpoly(a: Mat) -> list:
    """Characteristic polynomial det(tI - A), ascending coefficients; in
    C64 numpy's, as complex numbers. Computed once per matrix, and a fresh
    list on every call."""
    p = getattr(a, "_charpoly", None)
    if p is None:
        p = tuple(_compute_charpoly(a))
        _set(a, "_charpoly", p)
    return list(p)


def _compute_charpoly(a: Mat) -> list:
    """The coefficients of `charpoly`, ascending.

    Exact: Faddeev-LeVerrier on the grid M = den A, over Z, or over Z[i] on
    (re, im) int pairs: B_1 = M, c_k = -tr(B_k) / k, B_(k+1) = M (B_k + c_k I).
    The c_k are the coefficients of det(tI - M), integers over Z or Z[i],
    so each division by k is exact; the t^(n-k) coefficient of A is
    c_k / den^k.
    """
    if a.regime == C64:
        import numpy as np

        return [complex(c) for c in reversed(np.poly(_to_numpy(a)))]
    n = a.n
    den, re, im = grid(a)
    diag = range(0, n * n, n + 1)
    rows = _split(re, n) if im is None else [r + i for r, i in zip(_split(re, n), _split(im, n))]
    br, bi = re, im
    coeffs = [scalar_one(a.regime)]  # t^n, then descending
    for k in range(1, n + 1):
        cr = -sum(br[j] for j in diag) // k
        if im is None:
            coeffs.append(rational(cr, den**k))
        else:
            ci = -sum(bi[j] for j in diag) // k
            coeffs.append(gauss(cr, ci, den**k))
        if k == n:
            break
        br = list(br)
        for j in diag:
            br[j] += cr
        cols = [br[j::n] for j in range(n)]
        if im is None:
            br = _dots(rows, cols)
            continue
        bi = list(bi)
        for j in diag:
            bi[j] += ci
        # rows (re | im) of M against columns (re | -im) and (im | re) of B + c I
        im_cols = [bi[j::n] for j in range(n)]
        br, bi = (
            _dots(rows, [c + [-x for x in d] for c, d in zip(cols, im_cols)]),
            _dots(rows, [d + c for c, d in zip(cols, im_cols)]),
        )
    return coeffs[::-1]


def charpolys_match(px: list, py: list) -> bool:
    """Are px and py, coefficients of `charpoly`, one polynomial? Exact in
    QR and QC; in C64 they agree within CHARPOLY_RTOL of px's largest."""
    if not isinstance(px[0], complex):
        return px == py
    scale = max(1.0, max(abs(c) for c in px))
    return all(abs(p - q) <= CHARPOLY_RTOL * scale for p, q in zip(px, py))


# ---------------------------------------------------------------------------
# group membership


def member(a: Mat, g: GroupTag, tol: float = DEFAULT_TOL) -> bool:
    if a.n != g.n:
        raise RegimeMismatch("size mismatch")
    if a.regime not in g.regimes():
        raise RegimeMismatch(f"regime {a.regime} does not model field {g.field}")
    if g.unitary and not close(mul(conj_transpose(a), a), identity(a.n, a.regime), tol):
        return False
    if g.family == "Un":
        return True
    d = det(a)
    if g.family == "GL":
        return not scalar_close(d, _ZERO[a.regime], tol) and d == d  # a NaN det fails too
    return scalar_close(d, _ONE[a.regime], tol)


# ---------------------------------------------------------------------------
# proportionality


def flat(a: Mat) -> list:
    """a's n^2 entries, row by row."""
    return [x for row in a.entries for x in row]


def pivot(xs):
    """The index a ratio is read at: of the first nonzero entry of xs in the
    exact regimes, of the first of largest modulus in C64; None when xs is
    zero."""
    cells = [k for k, x in enumerate(xs) if x]
    if cells and isinstance(xs[cells[0]], complex):
        return max(cells, key=lambda k: abs(xs[k]))
    return cells[0] if cells else None


def ratio(ys, xs, tol: float = DEFAULT_TOL):
    """The c with ys = c xs for two equal-length scalar sequences: exact in
    QR and QC, in C64 within tol times max(1, |pivot|) entry by entry. None
    when there is no such c or xs is zero."""
    if len(ys) != len(xs):
        raise BadParameters("a ratio needs two sequences of one length")
    k = pivot(xs)
    if k is None:
        return None
    c = ys[k] / xs[k]
    slack = tol * max(1.0, abs(xs[k])) if isinstance(xs[k], complex) else 0.0
    return c if all(scalar_close(y, c * x, slack) for x, y in zip(xs, ys)) else None


# ---------------------------------------------------------------------------
# the determinant-respecting basis of SL_n / SL_n^-


@dataclass(frozen=True)
class Basis:
    kind: str  # "B" or "Bprime"
    n: int
    mats: tuple[Mat, ...]

    def gram(self) -> Mat:
        """The trace form tr(X Y) on the basis; symmetric, so each pair once."""
        m = len(self.mats)
        rows = [[None] * m for _ in range(m)]
        for j in range(m):
            for k in range(j, m):
                rows[j][k] = rows[k][j] = trace(mul(self.mats[j], self.mats[k]))
        return Mat(m, QR, tuple(map(tuple, rows)))

    @cached_property
    def _inverse(self) -> Mat:
        """The inverse of the basis matrix, whose column k is member k laid
        flat; the n^2 members span M_n."""
        cols = [flat(b) for b in self.mats]
        return _inv_rref(Mat(len(cols), QR, tuple(zip(*cols))))

    def coordinates(self, x: Mat) -> list[Fraction]:
        """Coefficients of x in the basis: one product of x's grid with the
        inverse basis matrix, which is factored once per Basis."""
        _check_same(self.mats[0], x)
        (den, inverse, _), (dx, v, _) = grid(self._inverse), grid(x)
        return [rational(sum(map(_imul, row, v)), den * dx) for row in _split(inverse, len(self.mats))]


def build_basis(kind: str, n: int) -> Basis:
    """The n^2 determinant-one (or -1 for Bprime) spanning matrices.

    n diagonal matrices carry (1/2)^(n-1) in one diagonal slot and 2 in the
    others; the n^2 - n off-diagonal members put (1/2)^(n-1) in the upper left
    corner, 2 on the rest of the diagonal, and a single 1 off the diagonal.
    Bprime flips the (1/2)^(n-1) entry to its negative, landing in SL_n^-.
    """
    if kind not in ("B", "Bprime"):
        raise BadParameters("kind must be 'B' or 'Bprime'")
    if n < 3:
        raise BadParameters("n >= 3 is required")
    small = Fraction(1, 2) ** (n - 1)
    if kind == "Bprime":
        small = -small
    mats: list[Mat] = []
    for k in range(n):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = small if i == k else Fraction(2)
        mats.append(mat(rows, QR))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows = [[Fraction(0)] * n for _ in range(n)]
            for d in range(n):
                rows[d][d] = small if d == 0 else Fraction(2)
            rows[i][j] = Fraction(1)
            mats.append(mat(rows, QR))
    return Basis(kind, n, tuple(mats))


# ---------------------------------------------------------------------------
# seeded random elements


def _draw_shear(n: int, regime: str, rng: random.Random) -> tuple:
    """(i, j, p, s, r) of a random exact shear I + q E_ij, i != j, with
    q = (p + i s) / r nonzero: s = 0 over Q, r = 1 over Q(i)."""
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    if regime == QR:
        return i, j, rng.choice([1, -1, 2, -2, 1, -1]), 0, rng.choice([1, 1, 2])
    p, s = rng.randint(-2, 2), rng.randint(-2, 2)
    return i, j, p if p or s else 1, s, 1


def random_sl(n: int, regime: str, rng: random.Random, length: int = 3) -> Mat:
    """The product of length random shears, exact-only; the identity for
    length 0.

    The product is one running integer grid: right multiplying by
    I + ((p + i s) / r) E_ij scales the grid by r and adds p + i s times
    the old column i to column j, O(n) per shear when r = 1. One gcd
    reduces the grid at the end."""
    if regime == C64:
        raise RegimeMismatch("random_sl is exact-only: lift an exact sample with to_c64")
    den, re = 1, [0] * (n * n)
    re[::n + 1] = [1] * n
    im = None if regime == QR else [0] * (n * n)
    for _ in range(length):
        i, j, p, s, r = _draw_shear(n, regime, rng)
        src, dst = slice(i, None, n), slice(j, None, n)
        if im is None:
            add_re = [p * x for x in re[src]]
        else:
            add_re, add_im = _gauss_times(p, s, re[src], im[src])
        if r != 1:
            den *= r
            re = [r * x for x in re]
            if im is not None:
                im = [r * x for x in im]
        re[dst] = list(map(_iadd, re[dst], add_re))
        if im is not None:
            im[dst] = list(map(_iadd, im[dst], add_im))
    return _canon(n, regime, den, tuple(re), None if im is None else tuple(im))


_GL_DETS = {
    QR: tuple(map(Fraction, (2, 3, Fraction(1, 2), -1, -2, 4))),
    QC: tuple(GaussRational(Fraction(x), Fraction(y)) for x, y in ((1, 1), (0, 2), (2, 0), (1, -1))),
}


def random_gl(n: int, regime: str, rng: random.Random) -> Mat:
    """A random SL_n member with its row 0 scaled by a random d, exact-only."""
    a = random_sl(n, regime, rng)
    return scale_first(a, rng.choice(_GL_DETS[regime]))


def random_unitary(n: int, seed: int) -> Mat:
    """Haar-ish random unitary via QR of a complex Gaussian, deterministic."""
    import numpy as np

    g = np.random.default_rng(seed)
    z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return _from_numpy(q)


def random_su(n: int, seed: int) -> Mat:
    import numpy as np

    u = _to_numpy(random_unitary(n, seed))
    dv = np.linalg.det(u)
    u[:, 0] = u[:, 0] / dv
    return _from_numpy(u)


def random_pool(group: GroupTag, rng: random.Random, size: int) -> list[Mat]:
    """size seeded random elements of group: exact for GL and SL, C64 for
    the unitary groups."""
    n, regime = group.n, group.regimes()[0]
    out = []
    for _ in range(size):
        if group.family == "SUn":
            out.append(random_su(n, seed=rng.randrange(10**6)))
        elif group.family == "Un":
            out.append(random_unitary(n, seed=rng.randrange(10**6)))
        elif group.family == "SL":
            out.append(random_sl(n, regime, rng))
        else:
            out.append(random_gl(n, regime, rng))
    return out
