"""Exact dense linear algebra over Q and Q(i), list-of-lists based.

Rows hold exact scalars (Fraction or GaussRational). rref works on their
integer grid (scalars.clear_row) and builds field scalars once at the end;
the rest is field-generic: truth as the zero test, zero the scalar type
called with no argument and one it called with Fraction(1). Nothing rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import clear_row, field_row, int_width


def rref(rows: list[list], aug: int = 0):
    """Reduced row echelon form of a copy of rows.

    Returns (matrix, pivot_columns). The final `aug` columns are carried along
    but never pivoted on (augmented system). Rows past the rank are zero
    outside the augmented columns, and their augmented entries are nonzero
    exactly when the system is inconsistent.

    Fraction-free Gauss-Jordan on the integer grid of the rows (each row
    scaled by the lcm of its denominators, which leaves the row space alone):
    rows are combined by cross-multiplying and kept divided by their integer
    content. Over Q(i) each pivot row is first multiplied by the conjugate
    of its pivot, so every pivot is a positive integer; the division by the
    pivot happens once, when the field scalars are built.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    w = int_width(rows[0][0])
    m = [clear_row(r)[0] for r in rows]
    nrows, length = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) - aug):
        if r >= nrows:
            break
        lo = w * c
        hi = lo + w - 1
        pivot = next((i for i in range(r, nrows) if m[i][lo] or m[i][hi]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r] = _unit_pivot(m[r], lo, w)
        pv = prow[lo]
        if w == 1:
            nz = [j for j in range(lo, length) if prow[j]]
        else:
            # i times the pivot row: (a + b i) i = -b + a i
            iprow = [0] * length
            iprow[0::2] = [-x for x in prow[1::2]]
            iprow[1::2] = prow[0::2]
            nz = [j for j in range(lo, length) if prow[j] or iprow[j]]
        for i in range(nrows):
            row = m[i]
            if i == r or not (row[lo] or row[hi]):
                continue
            f, fi = row[lo], row[hi] if w == 2 else 0
            g = gcd(pv, f, fi)
            s = pv // g
            f //= g
            if s != 1:
                row = [s * x for x in row]
            if w == 1:
                for j in nz:
                    row[j] -= f * prow[j]
            else:
                fi //= g
                for j in nz:
                    row[j] -= f * prow[j] + fi * iprow[j]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = [field_row(row, row[w * c], w) for row, c in zip(m, pivots)]
    out += [field_row(row, 1, w) for row in m[r:]]
    return out, pivots


def _unit_pivot(row: list[int], lo: int, w: int) -> list[int]:
    """row rescaled so that its entry at lo is a positive integer and its
    content is 1."""
    if w == 2 and row[lo + 1]:
        # times the conjugate of the pivot: (a + b i)(p - q i)
        p, q = row[lo], row[lo + 1]
        re, im = row[0::2], row[1::2]
        row = [0] * len(row)
        row[0::2] = [a * p + b * q for a, b in zip(re, im)]
        row[1::2] = [b * p - a * q for a, b in zip(re, im)]
    g = gcd(*row)
    if row[lo] < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


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
