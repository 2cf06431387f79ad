"""Scalar regimes.

Three regimes are supported everywhere: exact rationals (Python Fraction),
exact Gaussian rationals, and tolerance-tagged machine complex numbers.
Exact regimes never round; the approximate regime compares within a tol.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, ZeroInput

DEFAULT_TOL = 1e-9
MAX_LITERAL = 4300  # characters in an exact literal read from input, Python's default int digit limit
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/0*[1-9][0-9]*)?\s*")


def parse_rational(s: str | int) -> Fraction:
    """Parse "p/q" or "p" of at most MAX_LITERAL characters (also accepts
    ints). Decimal and exponent forms are refused: "1e1000000000" is short
    but its value is not."""
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise BadParameters(f"rational expected as string or int, got {type(s).__name__}")
    if len(s) > MAX_LITERAL:
        raise BadParameters(f"rational literal of {len(s)} characters, above the ceiling {MAX_LITERAL}")
    if not _RATIONAL.fullmatch(s):
        raise BadParameters(f"bad rational literal {s!r}")
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" with q > 0 and gcd 1; "p" when the denominator is 1."""
    return str(q)


@dataclass(frozen=True, slots=True)
class GaussRational:
    """Exact element of Q(i)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        # real entries dominate in practice; skip the dead cross terms
        if self.im == 0:
            if other.im == 0:
                return GaussRational(self.re * other.re, self.im)
            return GaussRational(self.re * other.re, self.re * other.im)
        if other.im == 0:
            return GaussRational(self.re * other.re, self.im * other.re)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __pow__(self, k: int) -> "GaussRational":
        if not isinstance(k, int):
            raise BadParameters("GaussRational powers must be integers")
        if k < 0:
            return GQ_ONE / self.__pow__(-k)
        out = GQ_ONE
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


GQ_ZERO = GaussRational()
GQ_ONE = GaussRational(Fraction(1))
GQ_I = GaussRational(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# integer grids: the exact kernels compute over Z and Z[i]
#
# A matrix keeps its own grid (matrices.Mat): its exact scalars cleared
# once to integers over one common denominator d. A rational x becomes the
# int x*d, a Gaussian rational the (re, im) int pair of x*d, laid flat, so a
# row of k Gaussian rationals is 2k ints.

_Q0 = Fraction(0)


def clear_row(row) -> tuple[list[int], int]:
    """(ints, d) with row = ints / d, d the lcm of the row's denominators."""
    if isinstance(row[0], GaussRational):
        parts = [p for x in row for p in (x.re, x.im)]
    else:
        parts = row
    d = math.lcm(*[p.denominator for p in parts])
    if d == 1:
        return [p.numerator for p in parts], 1
    return [p.numerator * (d // p.denominator) for p in parts], d


def rational(num: int, den: int) -> Fraction:
    """num / den for ints, den nonzero."""
    return Fraction(num, den) if num else _Q0


def gauss(re: int, im: int, den: int) -> GaussRational:
    """(re + i im) / den for ints, den nonzero."""
    return GaussRational(rational(re, den), rational(im, den))


def iroot(k: int, n: int) -> int | None:
    """Exact integer n-th root of k >= 0, or None.

    Integer Newton's method from above, so exact at any size of k.
    """
    if k < 0:
        raise BadParameters("iroot expects k >= 0")
    if n < 1:
        raise BadParameters("iroot expects n >= 1")
    if k < 2:
        return k
    x = 1 << -(-k.bit_length() // n)
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            return x if x**n == k else None
        x = y


def rational_nth_root(q: Fraction, n: int) -> Fraction | None:
    """The real n-th root of q when it is rational, else None.

    For even n and q > 0 the positive root is returned; q < 0 has no real root.
    """
    if n < 1:
        raise BadParameters("n must be >= 1")
    if q == 0:
        raise ZeroInput("0 has no place in a multiplicative group")
    neg = q < 0
    if neg and n % 2 == 0:
        return None
    a = iroot(abs(q.numerator), n)
    b = iroot(abs(q.denominator), n)
    if a is None or b is None:
        return None
    r = Fraction(a, b)
    return -r if neg else r


def rational_pow(q: Fraction, e: Fraction) -> Fraction | None:
    """q**e when the result is rational (q nonzero), else None."""
    if q == 0:
        raise ZeroInput("rational_pow of 0")
    if e.denominator == 1:
        return q ** int(e)
    r = rational_nth_root(q, e.denominator)
    if r is None:
        return None
    return r ** e.numerator


def real_nth_root_candidates(q: Fraction, n: int) -> list[Fraction]:
    """All rational real solutions c of c**n = q (0, 1 or 2 of them)."""
    r = rational_nth_root(q, n)
    if r is None:
        return []
    if n % 2 == 0 and q > 0:
        return [r, -r]
    return [r]


def complex_nth_roots(w: complex, n: int) -> list[complex]:
    """All complex solutions of z**n = w."""
    if w == 0:
        raise ZeroInput("no roots of zero in C*")
    rho = abs(w) ** (1.0 / n)
    theta = math.atan2(w.imag, w.real) / n
    step = 2 * math.pi / n
    return [rho * complex(math.cos(theta + k * step), math.sin(theta + k * step)) for k in range(n)]
