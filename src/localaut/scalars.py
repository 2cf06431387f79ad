"""Scalar regimes.

Three regimes are supported everywhere: exact rationals (Python Fraction),
exact Gaussian rationals, and machine complex numbers. Exact regimes never
round; the approximate regime compares within the tolerances named below.

A Gaussian rational is the scalar twin of a matrix grid: the ints (p, s, q)
with value (p + i s) / q, q > 0 and gcd(p, s, q) = 1. Sums and products are
cross products over q1 q2, a quotient multiplies by the conjugate over
q (c^2 + d^2), a power squares the int pair and puts q^k under it, and each
ends in one gcd; negation and conjugation only flip signs. The Fraction
views `re` and `im` are built when read.
"""
from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

from .errors import BadParameters, ZeroInput

# The tolerances of the C64 regime, one per decision; the exact regimes
# compare exactly and read none of them. Each float step a value has been
# through since the input widens the one it is judged by.
DEFAULT_TOL = 1e-9  # an input's membership, and C64 equality of given matrices
FIT_TOL = 1e-8  # a fit in floats: the unitary intertwiner, circle and C* pair screens, tables, witness unitarity, verify-auto
CHARPOLY_RTOL = 1e-6  # C64 characteristic polynomials agree within this share of the first's largest coefficient, or of 1
POINT_TOL = 1e-12  # C64 witness table points: one within this distance of an earlier point drops
COND_CAP = 1e8  # the largest condition number of a C64 intertwiner that is tried
NULL_RTOL = 1e-12  # a C64 null space: singular values up to this share of the largest, or up to FIT_TOL
RECHECK_TOL = 1e-7  # a fit re-checked after more float steps: a witness, the polar factor, recovery ratios
ANSWER_TOL = 1e-6  # membership of an oracle's answer, computed by a map the toolkit does not see
SU_RESIDUAL = 50 * DEFAULT_TOL  # the largest Frobenius distance an SU_n recovery verifies within
CIRCLE_DRIFT = 10 * DEFAULT_TOL  # how far a U_n verification scalar may leave the circle
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


class GaussRational:
    """Exact element of Q(i), kept on its integer grid: (p + i s) / q for
    the ints p, s and q > 0 with gcd(p, s, q) = 1. The grid is unique, so
    == and the operations run on ints, each ending in one gcd; `re` and
    `im` are Fraction views built when read."""

    __slots__ = ("p", "s", "q")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        re, im = Fraction(re), Fraction(im)
        q = math.lcm(re.denominator, im.denominator)
        _set_p(self, re.numerator * (q // re.denominator))
        _set_s(self, im.numerator * (q // im.denominator))
        _set_q(self, q)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.s, self.q)

    def __reduce__(self):  # copy and pickle rebuild the grid
        return _canonical, (self.p, self.s, self.q)

    def __eq__(self, other):
        if other.__class__ is not GaussRational:
            return NotImplemented
        return self.p == other.p and self.s == other.s and self.q == other.q

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.s >= 0 else ''}{self.im}i"

    def __add__(self, other: "GaussRational") -> "GaussRational":
        q, r = self.q, other.q
        return gauss(self.p * r + other.p * q, self.s * r + other.s * q, q * r)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        q, r = self.q, other.q
        return gauss(self.p * r - other.p * q, self.s * r - other.s * q, q * r)

    def __neg__(self) -> "GaussRational":
        return _canonical(-self.p, -self.s, self.q)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        p, s, c, d = self.p, self.s, other.p, other.s
        return gauss(p * c - s * d, p * d + s * c, self.q * other.q)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        # (p + i s) / q over (c + i d) / r is r (p + i s)(c - i d) / (q (c^2 + d^2))
        p, s, c, d, r = self.p, self.s, other.p, other.s, other.q
        if not (c or d):
            raise ZeroDivisionError("division by zero Gaussian rational")
        return gauss((p * c + s * d) * r, (s * c - p * d) * r, self.q * (c * c + d * d))

    def conjugate(self) -> "GaussRational":
        return _canonical(self.p, -self.s, self.q)

    def abs2(self) -> Fraction:
        return Fraction(self.p * self.p + self.s * self.s, self.q * self.q)

    def __bool__(self) -> bool:
        return bool(self.p or self.s)

    def __complex__(self) -> complex:
        return complex(self.p / self.q, self.s / self.q)

    def __pow__(self, k: int) -> "GaussRational":
        if not isinstance(k, int):
            raise BadParameters("GaussRational powers must be integers")
        if k < 0:
            return (GQ_ONE / self) ** -k
        p, s, den = self.p, self.s, self.q**k
        a, b = 1, 0
        while k:
            if k & 1:
                a, b = a * p - b * s, a * s + b * p
            k >>= 1
            if k:
                p, s = p * p - s * s, 2 * p * s
        return gauss(a, b, den)


_new = object.__new__
_set_p, _set_s, _set_q = (GaussRational.__dict__[name].__set__ for name in GaussRational.__slots__)


def _canonical(p: int, s: int, q: int) -> GaussRational:
    """(p + i s) / q for a grid that is canonical already."""
    z = _new(GaussRational)
    _set_p(z, p)
    _set_s(z, s)
    _set_q(z, q)
    return z


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
        d = math.lcm(*[x.q for x in row])
        return [v * (d // x.q) for x in row for v in (x.p, x.s)], d
    d = math.lcm(*[p.denominator for p in row])
    if d == 1:
        return [p.numerator for p in row], 1
    return [p.numerator * (d // p.denominator) for p in row], d


def rational(num: int, den: int) -> Fraction:
    """num / den for ints, den nonzero."""
    return Fraction(num, den) if num else _Q0


def gauss(re: int, im: int, den: int) -> GaussRational:
    """(re + i im) / den for ints, den nonzero, reduced by one gcd."""
    g = math.gcd(re, im, den)
    if den < 0:
        g = -g
    if g != 1:
        re, im, den = re // g, im // g, den // g
    return _canonical(re, im, den)


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


def gauss_root(w: GaussRational, g: int) -> GaussRational | None:
    """A g-th root of w != 0 in Q(i), the principal one for g | 4, or None.

    A root c of w = (p + i s) / q makes z = c q a Gaussian integer with
    z^g = N = (p + i s) q^(g-1). Integer Newton in Z[i] runs from each
    float g-th root of N in turn, principal first, computed on N / 2^(g e)
    in the float range and scaled back by 2^e; z is taken only if z^g == N."""
    power = gauss(w.p * w.q ** (g - 1), w.s * w.q ** (g - 1), 1)
    e = max(0, -(-(max(abs(power.p), abs(power.s)).bit_length() - 60) // g))
    lower, order = GaussRational(g - 1), GaussRational(g)
    for r in complex_nth_roots(complex(power.p / (1 << g * e), power.s / (1 << g * e)), g):
        z = gauss(round(Fraction(r.real) * (1 << e)), round(Fraction(r.imag) * (1 << e)), 1)
        for _ in range(e.bit_length() + 4):  # each step about doubles the correct bits
            step = (lower * z + power / z ** (g - 1)) / order
            z, last = gauss((2 * step.p + step.q) // (2 * step.q), (2 * step.s + step.q) // (2 * step.q), 1), z
            if z == last or not z:
                break
        if z and z**g == power:
            return gauss(z.p, z.s, w.q)
    return None


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
