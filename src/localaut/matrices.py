"""Exact and approximate matrix core.

Matrices are immutable, square, regime-homogeneous. Regimes:
  QR  - rational entries (Fraction), exact
  QC  - Gaussian rational entries, exact
  C64 - machine complex entries, tolerance-based

Exact regimes never see a float; C64 delegates numerics to numpy.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul as _imul

from .errors import (
    BadIdempotent,
    BadParameters,
    RegimeMismatch,
    SingularMatrix,
)
from .exactlinalg import rref, solve
from .scalars import (
    DEFAULT_TOL,
    GQ_ONE,
    GQ_ZERO,
    GaussRational,
    clear_row,
    exact_quotient,
    gauss,
    quotient,
    rational,
    ring_row,
)

QR = "QR"
QC = "QC"
C64 = "C64"
REGIMES = (QR, QC, C64)

FAMILIES = ("GL", "SL", "SLminus", "Un", "SUn")


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
    def is_group(self) -> bool:
        return self.family != "SLminus"

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


@dataclass(frozen=True)
class Mat:
    n: int
    regime: str
    entries: tuple

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise BadParameters(f"unknown regime {self.regime!r}")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise BadParameters("entries must form an n x n square")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def rows(self) -> list[list]:
        return [list(r) for r in self.entries]


def mat(rows, regime: str) -> Mat:
    n = len(rows)
    ent = tuple(tuple(coerce_scalar(regime, v) for v in r) for r in rows)
    return Mat(n, regime, ent)


def identity(n: int, regime: str) -> Mat:
    one, zero = scalar_one(regime), scalar_zero(regime)
    return Mat(n, regime, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))


def zeros(n: int, regime: str) -> Mat:
    zero = scalar_zero(regime)
    return Mat(n, regime, tuple(tuple(zero for _ in range(n)) for _ in range(n)))


def diag_first(n: int, d, regime: str) -> Mat:
    """diag(d, 1, ..., 1): determinant d, the scalar-character probe."""
    rows = identity(n, regime).rows()
    rows[0][0] = d
    return mat(rows, regime)


def _check_same(a: Mat, b: Mat):
    if a.regime != b.regime or a.n != b.n:
        raise RegimeMismatch("operands must share size and regime")


def add(a: Mat, b: Mat) -> Mat:
    _check_same(a, b)
    return Mat(a.n, a.regime, tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)))


def sub(a: Mat, b: Mat) -> Mat:
    _check_same(a, b)
    return Mat(a.n, a.regime, tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)))


def smul(c, a: Mat) -> Mat:
    c = coerce_scalar(a.regime, c)
    return Mat(a.n, a.regime, tuple(tuple(c * x for x in r) for r in a.entries))


def mul(a: Mat, b: Mat) -> Mat:
    """a b. In the exact regimes each row of a and each column of b is
    cleared to integers over one denominator, so an entry is one integer
    dot product (two grids, re and im, over Q(i)) and one scalar built."""
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
    ra = [clear_row(r) for r in a.entries]
    cb = [clear_row(c) for c in zip(*b.entries)]
    if a.regime == QR:
        return Mat(n, QR, tuple(
            tuple(rational(sum(map(_imul, x, y)), dx * dy) for y, dy in cb) for x, dx in ra
        ))
    ra = [(x[0::2], x[1::2], dx) for x, dx in ra]
    cb = [(y[0::2], y[1::2], dy) for y, dy in cb]
    return Mat(n, QC, tuple(
        tuple(
            gauss(
                sum(map(_imul, xr, yr)) - sum(map(_imul, xi, yi)),
                sum(map(_imul, xr, yi)) + sum(map(_imul, xi, yr)),
                dx * dy,
            )
            for yr, yi, dy in cb
        )
        for xr, xi, dx in ra
    ))


def transpose(a: Mat) -> Mat:
    return Mat(a.n, a.regime, tuple(zip(*a.entries)))


def conj(a: Mat) -> Mat:
    """Entrywise conjugation (identity on QR)."""
    if a.regime == QR:
        return a
    return Mat(a.n, a.regime, tuple(tuple(x.conjugate() for x in r) for r in a.entries))


def conj_transpose(a: Mat) -> Mat:
    return transpose(conj(a))


def apply_sigma(a: Mat, sigma: str) -> Mat:
    if sigma == "id":
        return a
    if sigma == "conj":
        return conj(a)
    raise BadParameters(f"sigma must be 'id' or 'conj', got {sigma!r}")


def trace(a: Mat):
    t = scalar_zero(a.regime)
    for i in range(a.n):
        t = t + a.entries[i][i]
    return t


def equal(a: Mat, b: Mat) -> bool:
    _check_same(a, b)
    if a.regime == C64:
        raise RegimeMismatch("use close(a, b, tol) in the C64 regime")
    return a.entries == b.entries


def close(a: Mat, b: Mat, tol: float = DEFAULT_TOL) -> bool:
    _check_same(a, b)
    if a.regime != C64:
        return a.entries == b.entries
    return max(
        abs(x - y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)
    ) <= tol


def det(a: Mat):
    if a.regime == C64:
        import numpy as np

        return complex(np.linalg.det(_to_numpy(a)))
    return _det_bareiss(a)


def _det_bareiss(a: Mat):
    """Fraction-free determinant: clear each row's denominators, then one
    Bareiss elimination over Z or Z[i], where every division by the previous
    pivot is exact."""
    n = a.n
    m, denom = [], 1
    for row in a.entries:
        xs, d = ring_row(row)
        m.append(xs)
        denom *= d
    sign, prev = 1, None  # prev: the previous pivot, none before the first step
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return scalar_zero(a.regime)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk, p = m[k], m[k][k]
        for mi in m[k + 1:]:
            f = mi[k]
            for j in range(k + 1, n):
                x = mi[j] * p - f * mk[j]
                mi[j] = x if prev is None else exact_quotient(x, prev)
        prev = p
    last = m[n - 1][n - 1]
    return quotient(last if sign > 0 else -last, denom)


def inv(a: Mat) -> Mat:
    if a.regime == C64:
        import numpy as np

        m = _to_numpy(a)
        if abs(np.linalg.det(m)) < 1e-300:
            raise SingularMatrix("matrix is numerically singular")
        return _from_numpy(np.linalg.inv(m))
    n = a.n
    if n <= 3:
        return _inv_small(a)
    one, zero = scalar_one(a.regime), scalar_zero(a.regime)
    augmented = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(a.entries)]
    m, pivots = rref(augmented, aug=n)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Mat(n, a.regime, tuple(tuple(m[i][n:]) for i in range(n)))


def _inv_small(a: Mat) -> Mat:
    """Adjugate inverse for n <= 3 on the integer grid: with a = D^-1 M for
    D the row denominators, a^-1 = adj(M) D / det(M)."""
    rows = [ring_row(r) for r in a.entries]
    e = [xs for xs, _ in rows]
    dens = [d for _, d in rows]
    n = a.n
    if n == 1:
        adj = [[GaussRational(1, 0) if a.regime == QC else 1]]
    elif n == 2:
        adj = [[e[1][1], -e[0][1]], [-e[1][0], e[0][0]]]
    else:
        idx = ((1, 2), (0, 2), (0, 1))

        def cof(i, j):
            r1, r2 = idx[i]
            c1, c2 = idx[j]
            m = e[r1][c1] * e[r2][c2] - e[r1][c2] * e[r2][c1]
            return m if (i + j) % 2 == 0 else -m

        adj = [[cof(j, i) for j in range(3)] for i in range(3)]
    d = e[0][0] * adj[0][0]
    for k in range(1, n):
        d = d + e[0][k] * adj[k][0]
    if not d:
        raise SingularMatrix("matrix is singular")
    return Mat(n, a.regime, tuple(
        tuple(quotient(adj[i][j], d, dens[j]) for j in range(n)) for i in range(n)
    ))


def rank_of(a: Mat, tol: float = DEFAULT_TOL) -> int:
    if a.regime == C64:
        import numpy as np

        return int(np.linalg.matrix_rank(_to_numpy(a), tol=tol))
    _, pivots = rref(a.rows())
    return len(pivots)


def _to_numpy(a: Mat):
    import numpy as np

    return np.array([[complex(x) for x in r] for r in a.entries], dtype=complex)


def _from_numpy(m) -> Mat:
    return Mat(len(m), C64, tuple(tuple(complex(x) for x in r) for r in m))


def to_c64(a: Mat) -> Mat:
    return mat(a.entries, C64)


def charpoly(a: Mat) -> list:
    """Characteristic polynomial det(tI - A), ascending coefficients, exact.

    Faddeev-LeVerrier: only divisions by integers occur, so the result is exact
    over QR and QC.
    """
    if a.regime == C64:
        raise RegimeMismatch("charpoly is an exact-regime tool")
    n = a.n
    coeffs_desc = [scalar_one(a.regime)]  # leading t^n
    m = a
    for k in range(1, n + 1):
        c = -trace(m) * coerce_scalar(a.regime, Fraction(1, k))
        coeffs_desc.append(c)
        if k < n:
            shifted = tuple(
                tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(m.entries)
            )
            m = mul(a, Mat(n, a.regime, shifted))
    return list(reversed(coeffs_desc))


def poly_from_roots(roots, regime: str) -> list:
    """prod (t - r), ascending coefficients."""
    coeffs = [scalar_one(regime)]
    for r in roots:
        r = coerce_scalar(regime, r)
        nxt = [scalar_zero(regime)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - r * c
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# group membership


def member(a: Mat, g: GroupTag, tol: float = DEFAULT_TOL) -> bool:
    if a.n != g.n:
        raise RegimeMismatch("size mismatch")
    if a.regime not in g.regimes():
        raise RegimeMismatch(f"regime {a.regime} does not model field {g.field}")
    if g.family in ("GL", "SL", "SLminus"):
        d = det(a)
        if g.family == "GL":
            return not scalar_close(d, _ZERO[a.regime], tol) and d == d  # a NaN det fails too
        return scalar_close(d, _ONE[a.regime] if g.family == "SL" else -_ONE[a.regime], tol)
    gram = mul(conj_transpose(a), a)
    if not close(gram, identity(a.n, a.regime), tol):
        return False
    return g.family == "Un" or scalar_close(det(a), _ONE[a.regime], tol)


# ---------------------------------------------------------------------------
# vectors, idempotents, the E-sets


def outer(x, y, regime: str) -> Mat:
    n = len(x)
    x = [coerce_scalar(regime, v) for v in x]
    y = [coerce_scalar(regime, v) for v in y]
    return Mat(n, regime, tuple(tuple(x[i] * y[j] for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class RankOneIdem:
    """P = x y^t with y^t x = 1 (no conjugation: an algebra idempotent)."""

    x: tuple
    y: tuple
    regime: str

    def matrix(self) -> Mat:
        return outer(self.x, self.y, self.regime)


def rank_one_idempotent(x, y, regime: str) -> RankOneIdem:
    x = tuple(coerce_scalar(regime, v) for v in x)
    y = tuple(coerce_scalar(regime, v) for v in y)
    pairing = sum((a * b for a, b in zip(y, x)), scalar_zero(regime))
    if not scalar_close(pairing, scalar_one(regime)):
        raise BadIdempotent("y^t x must equal 1")
    return RankOneIdem(x, y, regime)


def is_rank_one_idempotent(p: Mat, tol: float = DEFAULT_TOL) -> bool:
    return close(mul(p, p), p, tol) and rank_of(p, tol) == 1


def rank_one_with_trace(c: Mat, target) -> RankOneIdem:
    """A rank-one idempotent P = x y^t with tr(P c) = target, exactly.

    tr(x y^t c) = y^t c x, so it suffices to find x with x and c x
    independent (which exists unless c is scalar: a matrix fixing the lines
    of every e_i and e_i + e_j is diagonal with equal entries) and then
    solve the two linear conditions y^t x = 1, y^t (c x) = target on a
    2 x 2 invertible coordinate pair.
    """
    if c.regime == C64:
        raise RegimeMismatch("the trace-target search is exact; use QR or QC")
    n = c.n
    one, zero = scalar_one(c.regime), scalar_zero(c.regime)
    candidates = []
    for i in range(n):
        e = [zero] * n
        e[i] = one
        candidates.append(e)
        for j in range(i + 1, n):
            s = [zero] * n
            s[i] = one
            s[j] = one
            candidates.append(s)
    for x in candidates:
        cx = [sum((c[i, k] * x[k] for k in range(n)), zero) for i in range(n)]
        piv = None
        for i in range(n):
            for j in range(i + 1, n):
                if x[i] * cx[j] != x[j] * cx[i]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            continue
        i, j = piv
        detm = x[i] * cx[j] - x[j] * cx[i]
        tgt = coerce_scalar(c.regime, target)
        # invert [[x_i, x_j], [cx_i, cx_j]] for (y_i, y_j); other y_k = 0
        yi = (cx[j] * one - x[j] * tgt) / detm
        yj = (x[i] * tgt - cx[i] * one) / detm
        y = [zero] * n
        y[i], y[j] = yi, yj
        return rank_one_idempotent(x, y, c.regime)
    raise BadParameters("tr(P c) is constant: c is a scalar matrix")


def make_E(p: Mat) -> Mat:
    """(1/2)^(n-1) P + 2 (I - P) for a rank-one idempotent P; lies in SL_n.

    Its spectrum is the kind-detection dichotomy: (1/2)^(n-1) once and 2 with
    multiplicity n-1, while transpose-inverting it swaps to 2^(n-1) and 1/2.
    """
    if p.regime == C64:
        raise RegimeMismatch("make_E is exact; use QR or QC")
    if not is_rank_one_idempotent(p):
        raise BadIdempotent("make_E needs a rank-one idempotent")
    n = p.n
    small = Fraction(1, 2) ** (n - 1)
    i = identity(n, p.regime)
    return add(smul(small, p), smul(2, sub(i, p)))


def make_Es(p: Mat, alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> Mat:
    """alpha P + beta (I - P) with P a rank-one Hermitian projection; in SU_n.

    Constraints checked: alpha^n != 1, alpha beta^(n-1) = 1, and the spectrum
    {alpha, beta} is not conjugation-invariant. These make the element a
    conj-twist detector for SU_n.
    """
    n = p.n
    if p.regime != C64:
        p = to_c64(p)
    if not is_rank_one_idempotent(p, tol) or not close(p, conj_transpose(p), tol):
        raise BadIdempotent("make_Es needs a rank-one Hermitian projection")
    if abs(alpha**n - 1) <= tol:
        raise BadParameters("alpha^n must differ from 1")
    if abs(alpha * beta ** (n - 1) - 1) > tol:
        raise BadParameters("alpha beta^(n-1) = 1 is required for det 1")
    spec = {_round_c(alpha), _round_c(beta)}
    conj_spec = {_round_c(alpha.conjugate()), _round_c(beta.conjugate())}
    if spec == conj_spec:
        raise BadParameters("spectrum must not be conjugation-invariant")
    i = identity(n, C64)
    return add(smul(alpha, p), smul(beta, sub(i, p)))


def _round_c(z: complex, nd: int = 7) -> tuple:
    return (round(z.real, nd), round(z.imag, nd))


# ---------------------------------------------------------------------------
# the determinant-respecting basis of SL_n / SL_n^-


@dataclass(frozen=True)
class Basis:
    kind: str  # "B" or "Bprime"
    n: int
    mats: tuple[Mat, ...]

    def gram(self) -> Mat:
        m = len(self.mats)
        rows = [[trace(mul(self.mats[j], self.mats[k])) for k in range(m)] for j in range(m)]
        return Mat(m, QR, tuple(tuple(r) for r in rows))

    def coordinates(self, x: Mat) -> list[Fraction] | None:
        """Coefficients of x in the basis, or None if x is outside the span."""
        cols = [_flatten(b) for b in self.mats]
        a = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
        return solve(a, _flatten(x))


def _flatten(a: Mat) -> list:
    return [x for row in a.entries for x in row]


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


def random_shear(n: int, regime: str, rng: random.Random) -> Mat:
    """I + q E_ij with i != j; always in SL_n."""
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    if regime == QR:
        q = Fraction(rng.choice([1, -1, 2, -2, 1, -1]), rng.choice([1, 1, 2]))
    elif regime == QC:
        q = GaussRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        if not q:
            q = GQ_ONE
    else:
        q = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    rows = identity(n, regime).rows()
    rows[i][j] = rows[i][j] + coerce_scalar(regime, q)
    return Mat(n, regime, tuple(tuple(r) for r in rows))


def random_sl(n: int, regime: str, rng: random.Random, length: int = 3) -> Mat:
    out = identity(n, regime)
    for _ in range(length):
        out = mul(out, random_shear(n, regime, rng))
    return out


def random_gl(n: int, regime: str, rng: random.Random, dets=None) -> Mat:
    a = random_sl(n, regime, rng)
    if dets is None:
        if regime == QR:
            d = rng.choice([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(-2), Fraction(4)])
        elif regime == QC:
            d = rng.choice([GaussRational(Fraction(1), Fraction(1)), GaussRational(Fraction(0), Fraction(2)), GaussRational(Fraction(2)), GaussRational(Fraction(1), Fraction(-1))])
        else:
            d = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
    else:
        d = rng.choice(list(dets))
    rows = a.rows()
    rows[0] = [coerce_scalar(regime, d) * v for v in rows[0]]
    return Mat(n, regime, tuple(tuple(r) for r in rows))


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
