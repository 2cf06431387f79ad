"""Exact dense linear algebra over Q and Q(i), list-of-lists based.

Everything here is field-generic over exact scalars (Fraction or
GaussRational): +, -, *, / and truth as the zero test. Zero is the scalar
type called with no argument and one is it called with Fraction(1).
Nothing rounds.
"""
from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list], aug: int = 0):
    """Reduced row echelon form in place on a copy.

    Returns (matrix, pivot_columns). The final `aug` columns are carried along
    but never pivoted on (augmented system).
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols - aug):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: list[list]) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def solve(a: list[list], b: list):
    """One solution x of A x = b, or None if inconsistent.

    Free variables are set to zero. Exact.
    """
    if not a or not a[0]:
        return None if any(b) else []
    aug_rows = [list(r) + [bv] for r, bv in zip(a, b)]
    m, pivots = rref(aug_rows, aug=1)
    for row in m:
        if row[-1] and not any(row[:-1]):
            return None
    x = [type(a[0][0])()] * len(a[0])
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x


def nullspace(a: list[list]) -> list[list]:
    """Basis of the kernel of A, exact."""
    if not a or not a[0]:
        return []
    ncols = len(a[0])
    field = type(a[0][0])
    zero, one = field(), field(Fraction(1))
    m, pivots = rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis
