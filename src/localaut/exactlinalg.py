"""Exact dense linear algebra over Q and Q(i), list-of-lists based.

Rows hold exact scalars (Fraction or GaussRational), or are the int rows
of an integer grid. The work is done on integer rows (scalar rows are
cleared by scalars.clear_row), and field scalars are built once at the end
for scalar rows. Nothing rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import clear_row, field_row, int_width


def rref(rows: list[list], aug: int = 0, im: list[list] | None = None):
    """Reduced row echelon form of a copy of rows.

    Returns (matrix, pivot_columns). The final `aug` columns are carried along
    but never pivoted on (augmented system). Rows past the rank are zero
    outside the augmented columns, and their augmented entries are nonzero
    exactly when the system is inconsistent.

    rows may also be int rows (the real parts of Gaussian-integer rows,
    with `im` their imaginary parts). Their matrix is returned as int rows,
    re and im interleaved over Q(i): each pivot row holds a positive
    integer p at its pivot and stands for itself divided by p.

    Fraction-free Gauss-Jordan on the integer grid of the rows (each row
    scaled by the lcm of its denominators, which leaves the row space alone):
    rows are combined by cross-multiplying and kept divided by their integer
    content. Over Q(i) each pivot row is first multiplied by the conjugate
    of its pivot, so every pivot is a positive integer; the division by the
    pivot happens once, when the field scalars are built.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    grid = isinstance(rows[0][0], int)
    if not grid:
        w = int_width(rows[0][0])
        m = [clear_row(r)[0] for r in rows]
    elif im is None:
        w, m = 1, [list(r) for r in rows]
    else:
        w, m = 2, [[x for pair in zip(r, s) for x in pair] for r, s in zip(rows, im)]
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
    if grid:
        return m, pivots
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
    if isinstance(a[0][0], int):  # rref reads int rows as a grid; solve reads them as rationals
        a, b = [[Fraction(x) for x in r] for r in a], [Fraction(x) for x in b]
    aug_rows = [list(r) + [bv] for r, bv in zip(a, b)]
    m, pivots = rref(aug_rows, aug=1)
    for row in m:
        if row[-1] and not any(row[:-1]):
            return None
    x = [type(a[0][0])()] * len(a[0])
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x


def nullspace(a: list[list], im: list[list] | None = None) -> list[list]:
    """Basis of the kernel of A, exact.

    For int rows (and `im`, as in rref) each kernel vector comes back as
    (ints, den): the vector ints / den, re and im interleaved over Q(i).
    """
    if not a or not a[0]:
        return []
    scalars = not isinstance(a[0][0], int)
    if scalars:
        w = int_width(a[0][0])
        cleared = [clear_row(r)[0] for r in a]
        a, im = [r[0::w] for r in cleared], None if w == 1 else [r[1::2] for r in cleared]
    w = 1 if im is None else 2
    m, pivots = rref(a, im=im)
    basis = []
    for fc in (c for c in range(len(a[0])) if c not in pivots):
        # v_fc = 1 and v_c = -(row r at fc) / p_r for the pivot c of row r
        col = [(c, m[r][w * fc:w * fc + w], m[r][w * c]) for r, c in enumerate(pivots)]
        den = lcm(*[p for _, x, p in col if any(x)])
        v = [0] * (w * len(a[0]))
        v[w * fc] = den
        for c, x, p in col:
            v[w * c:w * c + w] = [-t * (den // p) for t in x]
        basis.append(field_row(v, den, w) if scalars else (v, den))
    return basis
