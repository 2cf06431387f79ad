"""Simultaneous similarity: find invertible S with S A_i = B_i S for all i.

In QR and QC the intertwiner space L = {S : S A_i = B_i S} is computed
exactly on the greedy Krylov basis of one sample, the first with one chain
(e_1 cyclic) or else the first with the fewest: S is a linear function of
its images of the m chain starts, m n unknowns instead of n^2, and one
integer nullspace over every pair's equations gives L. The search for an
invertible element of L is sound: a returned S is verified by direct
multiplication, NoSolution is certified (L = {0}, or the determinant
vanishes on a lattice that decides it), and anything else is Inconclusive.

In C64 the search stays in numpy: L is the null space of an SVD, and only
a well-conditioned candidate becomes a Mat, to be verified. Every random
search tries the same ATTEMPTS seeded combinations.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain
from math import comb, lcm
from operator import sub

from .errors import BadParameters, RegimeMismatch, ResidualFail
from .exactlinalg import extend, nullspace, rref
from .matrices import (
    C64,
    QR,
    Mat,
    close,
    det,
    from_grid,
    grid,
    identity,
    inv,
    mul,
    smul,
    _dots,
    _split,
    _to_numpy,
    _from_numpy,
)
from .scalars import COND_CAP, FIT_TOL, NULL_RTOL, RECHECK_TOL

GRID_CAP = 4096
ATTEMPTS = 50  # seeded random combinations of the intertwiner basis tried, in every search


@dataclass
class SimilarityResult:
    status: str  # "Solved" | "NoSolution" | "Inconclusive"
    s: Mat | None = None
    dim: int = 0
    note: str = ""


def intertwiner_basis(pairs: list[tuple[Mat, Mat]]) -> list[Mat]:
    """Exact basis of {S : S A_i = B_i S}, reduced on vec S read row by
    row: one element per free entry, 1 there and 0 at the other free
    entries. The free entries are the last nonzero entries of the
    intertwiners.

    Each pair is scaled to integer matrices first, which keeps the space.
    If S A = B S and U holds chains w_j, A w_j, ..., A^(k_j - 1) w_j, then
    S U = W(v) has the columns B^t v_j for v_j = S w_j, so S = W(v) U^-1
    is linear in m n unknowns for m chains. U is the greedy Krylov basis
    (`_greedy_basis`) of the first sample with one chain, built on the
    samples in order, else of the first with the fewest (m = n for a
    scalar). Every pair then reads W(v) C_i = B_i W(v) for
    C_i = U^-1 A_i U, in integers once C_i is cleared of its
    denominator; on the chosen pair only the columns that end a chain say
    anything, as A maps every other column of U to the next. One
    nullspace gives the v."""
    if not pairs:
        raise BadParameters("at least one pair is required")
    n = pairs[0][0].n
    regime = pairs[0][0].regime
    if regime == C64:
        raise RegimeMismatch("exact regimes only; use numeric_intertwiner_basis")
    if any(x.n != n or x.regime != regime for pair in pairs for x in pair):
        raise RegimeMismatch("all pairs must share size and regime")
    pairs = [_integral(a, b) for a, b in pairs]
    bases = []
    for a, _ in pairs:
        bases.append(_greedy_basis(a))
        if len(bases[-1][0]) == 1:
            break
    chosen = min(range(len(bases)), key=lambda i: len(bases[i][0]))
    chains, u, tails = bases[chosen]
    u_inv = inv(u)
    lengths = [k for _, k in chains]
    ends = list(accumulate(lengths))
    starts = [e - k for e, k in zip(ends, lengths)]
    owner = [j for j, k in enumerate(lengths) for _ in range(k)]
    base = pairs[chosen][1]
    powers = [identity(n, regime), base][:max(lengths)]
    while len(powers) < max(lengths):
        powers.append(mul(base, powers[-1]))
    # column t n + l of [B^0 | B^1 | ...]; and per chain length k, the
    # cell p n + l of B^0, ..., B^(k-1) as one vector
    power_cols = [c for x in powers for c in _columns(x)]
    width = len(power_cols)
    stacks = {k: _cells(powers[:k]) for k in set(lengths)}
    dc, u_rows = grid(u_inv)[0], _rows(u_inv)
    rows, ims = [], None if regime == QR else []
    for i, (a, b) in enumerate(pairs):
        if i == chosen:
            columns, targets = [e - 1 for e in ends], tails
        else:
            columns, targets = range(n), _columns(mul(a, u))
        # dc C_i at the chosen columns, x-th of them at c * across + x
        across = len(columns)
        coeffs = _products(u_rows, targets)
        # terms[h][x n^2 + p n + l] = sum_s dc C_i[starts[h] + s][q] B^s[p][l]
        # for the x-th column q; images[p width + t n + l] = (B_i B^t)[p][l]
        terms = [
            _products([_take(coeffs, slice(o * across + x, e * across, across)) for x in range(across)], stacks[e - o])
            for o, e in zip(starts, ends)
        ]
        images = _products(_rows(b), power_cols)
        for part, out in ((0, rows), (1, ims)):
            if out is None:
                continue
            blocks = [term[part] for term in terms]
            scaled = [dc * y for y in images[part]]
            for x, q in enumerate(columns):
                j = owner[q]
                at = n * (q - starts[j])
                for p in range(n):
                    cell = (x * n + p) * n
                    row = [y for block in blocks for y in block[cell:cell + n]]
                    image = scaled[p * width + at:p * width + at + n]
                    row[j * n:j * n + n] = map(sub, row[j * n:j * n + n], image)
                    out.append(row)
    b_rows = _rows(base)
    found = []
    for v, den in nullspace(rows, im=ims):
        v = (v, None) if ims is None else (v[0::2], v[1::2])
        cols = [x for j, k in enumerate(lengths) for x in _chain(b_rows, _take(v, slice(j * n, j * n + n)), k)]
        found.append(mul(_from_columns(cols, regime, den), u_inv))
    return _reduced(found, regime)


def _integral(a: Mat, b: Mat) -> tuple[Mat, Mat]:
    """(m a, m b) for the lcm m of their denominators: integer matrices with
    the intertwiners of (a, b)."""
    m = lcm(grid(a)[0], grid(b)[0])
    return (a, b) if m == 1 else (smul(m, a), smul(m, b))


def _vectors(re: list, im: list | None) -> list[tuple]:
    """Int vectors as (re, im) pairs, im None over Z."""
    return list(zip(re, im)) if im is not None else [(r, None) for r in re]


def _take(v: tuple, part: slice) -> tuple:
    """The slice of an (re, im) pair."""
    re, im = v
    return re[part], None if im is None else im[part]


def _cells(mats: list[Mat]) -> list[tuple]:
    """Per cell p n + l, the (re, im) vector of that cell across mats."""
    grids = [grid(x) for x in mats]
    im = None if grids[0][2] is None else list(zip(*[g[2] for g in grids]))
    return _vectors(list(zip(*[g[1] for g in grids])), im)


def _rows(a: Mat) -> list[tuple]:
    """The rows of the grid of a as (re, im) pairs."""
    _, re, im = grid(a)
    return _vectors(_split(re, a.n), None if im is None else _split(im, a.n))


def _columns(a: Mat) -> list[tuple]:
    """The columns of the grid of a as (re, im) pairs."""
    _, re, im = grid(a)
    n = a.n
    return _vectors([re[q::n] for q in range(n)], None if im is None else [im[q::n] for q in range(n)])


def _products(xs: list[tuple], ys: list[tuple]) -> tuple:
    """The products of the int rows xs with the int columns ys, row by row,
    as (re, im) laid flat; over Z[i] with the (re | im) rows of `mul`."""
    if xs[0][1] is None:
        return _dots([x for x, _ in xs], [y for y, _ in ys]), None
    rows = [tuple(r) + tuple(i) for r, i in xs]
    return (
        _dots(rows, [tuple(c) + tuple([-z for z in d]) for c, d in ys]),
        _dots(rows, [tuple(d) + tuple(c) for c, d in ys]),
    )


def _from_columns(cols: list[tuple], regime: str, den: int = 1) -> Mat:
    """The matrix with these int columns, over den."""
    n = len(cols)
    re = [cols[c][0][p] for p in range(n) for c in range(n)]
    im = None if regime == QR else [cols[c][1][p] for p in range(n) for c in range(n)]
    return from_grid(regime, den, re, im)


def _chain(a_rows: list[tuple], x: tuple, k: int) -> list[tuple]:
    """x, a x, ..., a^(k-1) x for the rows of a."""
    out = [x]
    while len(out) < k:
        out.append(_products(a_rows, [out[-1]]))
    return out


def _greedy_basis(a: Mat) -> tuple[list[tuple[int, int]], Mat, list[tuple]]:
    """The greedy Krylov basis of the integer matrix a: the chains e_j, a e_j,
    ..., a^(k-1) e_j for j = 1, 2, ... in turn, each cut at its first vector
    in the span of the vectors before it; together they are the pivot
    columns of [e_1, a e_1, ..., a^(n-1) e_1, e_2, ...]. Returns the (j, k)
    of the chains, U with the chains as columns, and the vectors a^k e_j
    that cut them."""
    a_rows, echelon, chains, cols, tails = _rows(a), [], [], [], []
    for j, x in enumerate(_columns(identity(a.n, a.regime))):
        k = 0
        while len(cols) < a.n and extend(echelon, *x):
            cols.append(x)
            x = _products(a_rows, [x])
            k += 1
        if k:
            chains.append((j, k))
            tails.append(x)
    return chains, _from_columns(cols, a.regime), tails


def _reduced(basis: list[Mat], regime: str) -> list[Mat]:
    """The reduced basis of the span of independent matrices: rref of their
    grids with the entries in reverse order, so each pivot is the last
    nonzero entry of its element."""
    if not basis:
        return []
    grids = [grid(s) for s in basis]
    m, pivots = rref(
        [list(g[1][::-1]) for g in grids], im=None if regime == QR else [list(g[2][::-1]) for g in grids]
    )
    w = 1 if regime == QR else 2
    out = [
        from_grid(regime, row[w * c], row[0::w][::-1], None if w == 1 else row[1::2][::-1])
        for row, c in zip(m, pivots)
    ]
    return out[::-1]


def _combiner(basis: list[Mat]):
    """The map from int coefficients c to sum c_i K_i, on the grids of the
    basis put over one common denominator once."""
    grids = [grid(k) for k in basis]
    den = lcm(*[g[0] for g in grids])
    scaled = [(den // g[0], g[1], g[2]) for g in grids]
    regime, cells = basis[0].regime, range(basis[0].n ** 2)

    def combine(coeffs) -> Mat:
        terms = [(c * f, re, im) for c, (f, re, im) in zip(coeffs, scaled) if c]
        re = [sum(w * r[j] for w, r, _ in terms) for j in cells]
        im = None if regime == QR else [sum(w * i[j] for w, _, i in terms) for j in cells]
        return from_grid(regime, den, re, im)

    return combine


def verify_intertwines(s: Mat, pairs: list[tuple[Mat, Mat]]) -> bool:
    """S A = B S for every pair: exactly, or within FIT_TOL in C64."""
    return all(close(mul(s, a), mul(b, s), FIT_TOL) for a, b in pairs)


def simultaneous_similarity(pairs: list[tuple[Mat, Mat]], seed: int = 0) -> SimilarityResult:
    """Solved with an invertible S such that S A_i = B_i S for every pair,
    NoSolution when none exists, else Inconclusive. It tries the basis
    elements of the d-dimensional intertwiner space, then ATTEMPTS seeded
    combinations, then in QR and QC the simplex sweep, which certifies
    NoSolution, when C(n + d - 1, n) <= GRID_CAP."""
    regime = pairs[0][0].regime
    if regime == C64:
        return _numeric_similarity(pairs, seed)
    basis = intertwiner_basis(pairs)
    d = len(basis)
    if d == 0:
        return SimilarityResult("NoSolution", dim=0, note="intertwiner space is zero")
    n = basis[0].n

    def try_candidate(s: Mat) -> Mat | None:
        if not det(s):
            return None
        if not verify_intertwines(s, pairs):
            raise ResidualFail("an element of the intertwiner basis span fails S A = B S")
        return s

    for k in basis:
        s = try_candidate(k)
        if s is not None:
            return SimilarityResult("Solved", s=s, dim=d)
    combine = _combiner(basis)
    rng = random.Random(seed)
    for _ in range(ATTEMPTS):
        coeffs = [rng.randint(-5, 5) for _ in range(d)]
        if all(c == 0 for c in coeffs):
            continue
        s = try_candidate(combine(coeffs))
        if s is not None:
            return SimilarityResult("Solved", s=s, dim=d)
    # det(sum x_i K_i) is homogeneous of degree n in x, so it vanishes on L
    # iff P(y) = det(K_1 + sum_{i>=2} y_i K_i) does, and P has total degree
    # <= n. A polynomial of total degree <= n that vanishes on the simplex
    # lattice {y in Z>=0^(d-1) : sum y_i <= n} is zero: its part at y_1 = 0
    # is zero by induction on d, so P = y_1 Q with Q of degree <= n - 1 zero
    # on the simplex lattice shifted by y_1 = 1, zero by induction on n. So
    # C(n + d - 1, n) evaluations certify that every element of L is singular.
    if comb(n + d - 1, n) <= GRID_CAP:
        for y in _simplex(d - 1, n):
            s = try_candidate(combine((1, *y)))
            if s is not None:
                return SimilarityResult("Solved", s=s, dim=d)
        return SimilarityResult(
            "NoSolution",
            dim=d,
            note="determinant vanishes identically on the intertwiner space",
        )
    return SimilarityResult("Inconclusive", dim=d, note="search exhausted without certificate")


def _simplex(k: int, total: int):
    """Every y in Z>=0^k with sum(y) <= total."""
    if k == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _simplex(k - 1, total - first):
            yield (first, *rest)


def numeric_intertwiner_basis(pairs: list[tuple[Mat, Mat]]) -> list:
    """Numeric basis of {S : S A_i = B_i S} as n x n complex arrays.

    S A - B S is (kron(I, A^T) - kron(B, I)) vec(S) for S read row by row;
    the basis is the right singular vectors of the stacked systems whose
    singular values lie below the cutoff: FIT_TOL, or NULL_RTOL of the largest."""
    import numpy as np

    n = pairs[0][0].n
    eye = np.eye(n)
    big = np.vstack([np.kron(eye, _to_numpy(a).T) - np.kron(_to_numpy(b), eye) for a, b in pairs])
    _, sv, vh = np.linalg.svd(big)
    cutoff = max(FIT_TOL, (sv[0] if len(sv) else 1.0) * NULL_RTOL)
    # null vectors are columns of V, i.e. conjugated rows of V^H
    return [vh[i].conj().reshape(n, n) for i in range(len(vh)) if i >= len(sv) or sv[i] <= cutoff]


def _numeric_similarity(pairs, seed: int) -> SimilarityResult:
    """The basis elements, then ATTEMPTS seeded combinations of them, each
    drawn only when it is tried; a well-conditioned one that intertwines
    within FIT_TOL is Solved."""
    import numpy as np

    basis = numeric_intertwiner_basis(pairs)
    d = len(basis)
    if d == 0:
        return SimilarityResult("NoSolution", dim=0, note="numeric intertwiner space is zero")
    rng = np.random.default_rng(seed)
    draws = (sum(c * k for c, k in zip(rng.normal(size=d), basis)) for _ in range(ATTEMPTS))
    for sm in chain(basis, draws):
        if np.linalg.cond(sm) < COND_CAP:
            s = _from_numpy(sm)
            if verify_intertwines(s, pairs):
                return SimilarityResult("Solved", s=s, dim=d)
    return SimilarityResult("Inconclusive", dim=d, note="no well-conditioned intertwiner found")


def unitary_intertwiner(pairs: list[tuple[Mat, Mat]], seed: int = 0) -> Mat | None:
    """Unitary U with U A_i = B_i U, when the A_i, B_i are unitary.

    Any invertible intertwiner S of unitary tuples polar-decomposes into
    S = U P with P commuting with the A_i, so U itself intertwines; the SVD
    that takes U off S is one more float step, so U is checked within
    RECHECK_TOL.
    """
    import numpy as np

    res = _numeric_similarity(pairs, seed)
    if res.status != "Solved":
        return None
    sm = _to_numpy(res.s)
    u_, _, vh = np.linalg.svd(sm)
    u = _from_numpy(u_ @ vh)
    return u if all(close(mul(u, a), mul(b, u), RECHECK_TOL) for a, b in pairs) else None
