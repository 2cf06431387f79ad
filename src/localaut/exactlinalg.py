"""Exact dense linear algebra on integer rows, over Q and Q(i).

Every solver reads the int rows of an integer grid: a row stands for the
line it spans over Q, and with `im` (the imaginary parts) for its line over
Q(i). Callers with field scalars clear their own rows. Nothing rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rref(rows: list[list[int]], aug: int = 0, im: list[list[int]] | None = None):
    """Reduced row echelon form of a copy of the int rows.

    Returns (matrix, pivot_columns). The final `aug` columns are carried along
    but never pivoted on (augmented system). Rows past the rank are zero
    outside the augmented columns, and their augmented entries are nonzero
    exactly when the system is inconsistent. With `im` the rows are Gaussian
    integers, and the matrix holds re and im interleaved. Each pivot row
    holds a positive integer p at its pivot and stands for itself divided
    by p.

    Fraction-free Gauss-Jordan: rows are combined by cross-multiplying and
    kept divided by their integer content. Over Q(i) each pivot row is first
    multiplied by the conjugate of its pivot, so every pivot is a positive
    integer.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    if im is None:
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
    return m, pivots


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


def rank(rows: list[list[int]], im: list[list[int]] | None = None) -> int:
    return len(rref(rows, im=im)[1])


def solve(a: list[list[int]], b: list[int]) -> list[Fraction] | None:
    """One rational solution x of A x = b over Q, or None if inconsistent.

    Free variables are set to zero; each pivot variable is read off its
    pivot row as x_c = row[-1] / row[c]. Exact.
    """
    if not a or not a[0]:
        return None if any(b) else []
    m, pivots = rref([list(r) + [bv] for r, bv in zip(a, b)], aug=1)
    if any(row[-1] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * len(a[0])
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[-1], row[c])
    return x


def nullspace(a: list[list[int]], im: list[list[int]] | None = None) -> list[tuple[list[int], int]]:
    """Basis of the kernel of A, exact, one vector per free column.

    Each kernel vector comes back as (ints, den): the vector ints / den,
    re and im interleaved over Q(i) (with `im`, as in rref), and 1 at its
    free column.
    """
    if not a or not a[0]:
        return []
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
        basis.append((v, den))
    return basis
