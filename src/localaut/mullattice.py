"""Exponent arithmetic on the magnitudes of nonzero rationals.

The GL_n(R) scalar character lives on all of R*; everything computable here
happens on finitely generated subgroups ("lattices"), where dependence
(`dep_exponent`, `relations`) and membership (`subgroup_exponents`, the
integral exponents that a lattice character `scalarmaps.LatticeFunc` is
evaluated by) reduce to exact integer linear algebra on exponent vectors
over a coprime base of the values. Nothing here factors into primes but
`factor`, the brute-force reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BadParameters, DomainNotFactorable, ZeroInput
from .exactlinalg import nullspace, solve

_TRIAL_BOUND = 10**6  # the largest trial divisor factor tries


def factor(q: Fraction) -> "SignedFactored":
    """Factor a nonzero rational into sign and prime exponents by trial
    division: the brute-force reference for criterion 7 and the tests. The
    lattices themselves never factor (see `_coprime_base`).

    Raises DomainNotFactorable when a cofactor above _TRIAL_BOUND**2 has no
    prime factor up to _TRIAL_BOUND, so every prime factor but the largest
    must be at most _TRIAL_BOUND."""
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("0 is not in R*")
    exps: dict[int, int] = {}
    for n, sign in ((abs(q.numerator), 1), (q.denominator, -1)):
        p = 2
        while p * p <= n:
            if p > _TRIAL_BOUND:
                raise DomainNotFactorable(f"{n} has no prime factor up to {_TRIAL_BOUND}")
            while n % p == 0:
                n //= p
                exps[p] = exps.get(p, 0) + sign
            p += 1 if p == 2 else 2
        if n > 1:
            exps[n] = exps.get(n, 0) + sign
    return SignedFactored(1 if q > 0 else -1, tuple(sorted((p, e) for p, e in exps.items() if e != 0)))


@dataclass(frozen=True)
class SignedFactored:
    """sign * prod p**e, the prime exponent-vector form of a nonzero rational."""

    sign: int
    factors: tuple[tuple[int, int], ...]


def dep_exponent(a: Fraction, b: Fraction) -> Fraction | None:
    """q with a = b**q for positive rationals, or None when independent.

    The relation "a ~ b iff a = b**q for some rational q != 0" partitions the
    positive rationals into classes; this computes the witness exponent
    without factoring: the exponents of a and b over a coprime base of their
    numerators and denominators must be proportional.
    """
    if a <= 0 or b <= 0:
        raise BadParameters("dep_exponent is defined on positive rationals")
    ea, eb = _exponents([a, b])
    if not any(ea) or not any(eb):
        return Fraction(1) if ea == eb else None  # 1 ~ 1 only
    q = next(Fraction(x, y) for x, y in zip(ea, eb) if y)
    return q if all(x == q * y for x, y in zip(ea, eb)) else None


def _exponents(values) -> list[list[int]]:
    """The exponents of each |value| over one coprime base of all their
    numerators and denominators, one list per value.

    Pairwise coprime integers > 1 are multiplicatively independent, so these
    vectors satisfy exactly the linear relations of the prime exponent
    vectors: every question about dependence reads the same answer off them.
    """
    values = [Fraction(v) for v in values]
    if any(v == 0 for v in values):
        raise ZeroInput("0 is not in R*")
    base = _coprime_base([x for v in values for x in (abs(v.numerator), v.denominator)])
    return [[_valuation(abs(v.numerator), p)[0] - _valuation(v.denominator, p)[0] for p in base] for v in values]


def _coprime_base(xs) -> list[int]:
    """Pairwise coprime ints > 1 whose powers multiply to each x in xs.
    Splitting two members with a common factor g into g and the cofactors
    left by dividing out every power of g lowers the product of all
    members, so this ends; a power of g splits in one step."""
    base: list[int] = []
    todo = [x for x in xs if x > 1]
    while todo:
        x = todo.pop()
        y = next((y for y in base if gcd(x, y) > 1), None)
        if y is None:
            base.append(x)
        else:
            g = gcd(x, y)
            base.remove(y)
            todo += [z for z in (g, _valuation(x, g)[1], _valuation(y, g)[1]) if z > 1]
    return base


def _valuation(x: int, p: int) -> tuple[int, int]:
    """(e, x / p**e) for the largest e with p**e dividing x, x >= 1, p > 1.

    Divides by p, p^2, p^4, ... while each divides, which leaves a cofactor
    of valuation below the next power's exponent 2^k, then by the same
    powers back down, one binary digit of the rest each: O(log e) big-int
    divisions, where stripping one p at a time takes e."""
    e, powers = 0, []
    while x % p == 0:
        x //= p
        e += 1 << len(powers)
        powers.append(p)
        p *= p
    for k in range(len(powers) - 1, -1, -1):
        if x % powers[k] == 0:
            x //= powers[k]
            e += 1 << k
    return e, x


def relations(values) -> list[list[int]]:
    """Primitive integer relations among the magnitudes of nonzero rationals.

    Each relation e has prod |values[i]|**e[i] = 1 with coprime entries, and
    together they span all such relations over Q: a nullspace basis of the
    exponent matrix over a coprime base, which has the kernel, and so the
    basis, of the prime exponent matrix. It is empty exactly when the
    magnitudes are multiplicatively independent.
    """
    exps = _exponents(values)
    rows = [list(col) for col in zip(*exps)] or [[0] * len(exps)]
    out = []
    for rel, _ in nullspace(rows):
        g = gcd(*rel)
        out.append([x // g for x in rel])
    return out


def subgroup_exponents(x: Fraction, generators) -> list[int] | None:
    """The integers e with |x| = prod generators[i]**e[i], or None when |x|
    lies outside the subgroup of the multiplicatively independent positive
    generators, in its divisible hull or beyond. The system is read over a
    coprime base of the generators and x."""
    *gens, ex = _exponents([*generators, x])
    v = solve([list(row) for row in zip(*gens)], ex)
    if v is None or any(e.denominator != 1 for e in v):
        return None
    return [int(e) for e in v]
