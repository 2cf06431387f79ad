"""Simultaneous similarity: find invertible S with S A_i = B_i S for all i.

In QR and QC the intertwiner space L = {S : S A_i = B_i S} is computed
exactly (nullspace of the integer system read off the grids of the pairs);
an invertible element is then hunted by a seeded randomized search plus a
deterministic sweep of the simplex lattice K_1 + sum y_i K_i, y >= 0,
sum y_i <= n. The solver is sound: a returned S is verified by direct
multiplication, NoSolution is certified (L = {0}, or the determinant, a
polynomial of total degree n on that affine slice, vanishes on the whole
lattice), and anything else is Inconclusive.

In C64 the search stays in numpy: L is the null space of an SVD, and only
a well-conditioned candidate becomes a Mat, to be verified. Every random
search tries the same ATTEMPTS seeded combinations.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from math import comb, lcm

from .errors import BadParameters, RegimeMismatch, ResidualFail
from .exactlinalg import nullspace
from .matrices import (
    C64,
    QR,
    Mat,
    close,
    det,
    from_grid,
    grid,
    mul,
    _to_numpy,
    _from_numpy,
)
from .scalars import FIT_TOL, RECHECK_TOL

GRID_CAP = 4096
ATTEMPTS = 50  # seeded random combinations of the intertwiner basis tried, in every search


@dataclass
class SimilarityResult:
    status: str  # "Solved" | "NoSolution" | "Inconclusive"
    s: Mat | None = None
    dim: int = 0
    note: str = ""


def intertwiner_basis(pairs: list[tuple[Mat, Mat]]) -> list[Mat]:
    """Exact basis of {S : S A_i = B_i S}.

    The equation at (p, q) is sum_k S_pk A_kq - B_pk S_kq = 0; times
    da db it has integer coefficients, read off the grids of A = ra / da
    and B = rb / db (re and im parts apart over Q(i))."""
    if not pairs:
        raise BadParameters("at least one pair is required")
    n = pairs[0][0].n
    regime = pairs[0][0].regime
    if regime == C64:
        raise RegimeMismatch("exact regimes only; use numeric_intertwiner_basis")
    rows: list[list[int]] = []
    ims: list[list[int]] | None = None if regime == QR else []
    for a, b in pairs:
        if a.n != n or b.n != n or a.regime != regime or b.regime != regime:
            raise RegimeMismatch("all pairs must share size and regime")
        da, ra, ia = grid(a)
        db, rb, ib = grid(b)
        for xa, xb, system in ((ra, rb, rows), (ia, ib, ims)):
            if system is None:
                continue
            for p in range(n):
                for q in range(n):
                    row = [0] * (n * n)
                    for k in range(n):
                        row[p * n + k] += xa[k * n + q] * db
                        row[k * n + q] -= xb[p * n + k] * da
                    system.append(row)
    # kernel vectors hold (re, im) pairs laid flat over Q(i)
    w = 1 if ims is None else 2
    kernel = nullspace(rows, im=ims)
    return [from_grid(regime, den, v[0::w], v[1::2] if ims else None) for v, den in kernel]


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
    singular values lie below the cutoff: FIT_TOL, or 1e-12 of the largest."""
    import numpy as np

    n = pairs[0][0].n
    eye = np.eye(n)
    big = np.vstack([np.kron(eye, _to_numpy(a).T) - np.kron(_to_numpy(b), eye) for a, b in pairs])
    _, sv, vh = np.linalg.svd(big)
    cutoff = max(FIT_TOL, (sv[0] if len(sv) else 1.0) * 1e-12)
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
        if np.linalg.cond(sm) < 1e8:
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
