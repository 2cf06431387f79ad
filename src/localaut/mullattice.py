"""Finitely generated multiplicative lattices in R* and the circle group.

Hidden scalar characters live on all of R* or S^1; everything computable here
happens on finitely generated subgroups ("lattices") where membership,
dependence and homomorphism evaluation reduce to exact integer linear algebra
on prime exponent vectors (R*) or on generator exponents (circle).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt

from .errors import (
    BadParameters,
    DomainNotFactorable,
    TooFewGenerators,
    ZeroInput,
)
from .exactlinalg import nullspace, solve
from .scalars import iroot

_FACTOR_LIMIT = 10**40


def factor(q: Fraction) -> "SignedFactored":
    """Factor a nonzero rational into sign and prime exponents."""
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("0 is not in R*")
    if abs(q.numerator) > _FACTOR_LIMIT or q.denominator > _FACTOR_LIMIT:
        raise DomainNotFactorable(f"refusing to factor rationals beyond {_FACTOR_LIMIT}")
    exps = factorint(abs(q.numerator))
    for p, e in factorint(q.denominator).items():
        exps[p] = exps.get(p, 0) - e
    sign = 1 if q > 0 else -1
    return SignedFactored(sign, tuple(sorted((p, e) for p, e in exps.items() if e != 0)))


# ---------------------------------------------------------------------------
# integer factorization: trial division, a proven primality test, rho

_TRIAL_BOUND = 1000
_SMALL_PRIMES = tuple(p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, isqrt(p) + 1)))
# Miller-Rabin with the first 13 prime bases is deterministic below psi_13
# (Sorenson and Webster 2015); from there up to _FACTOR_LIMIT the test is BPSW.
_MR_BASES = _SMALL_PRIMES[:13]
_PSI_13 = 3317044064679887385961981
# Pollard-Brent steps allowed per factorization: enough to split off a prime
# factor up to about 10**12, about a second of pure Python at that size.
_RHO_BUDGET = 1 << 21


def factorint(n: int) -> dict[int, int]:
    """{p: e} with n = prod p**e for 1 <= n <= _FACTOR_LIMIT.

    Raises DomainNotFactorable above the limit, and when the rho budget runs
    out, which takes a composite whose two smallest prime factors both exceed
    about 10**12.
    """
    if n > _FACTOR_LIMIT:
        raise DomainNotFactorable(f"refusing to factor integers beyond {_FACTOR_LIMIT}")
    exps: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps[p] = e
    if n == 1:
        return exps
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        exps[n] = exps.get(n, 0) + 1
        return exps
    budget = _RHO_BUDGET
    pending = [(n, 1)]
    while pending:
        m, k = pending.pop()
        if _is_prime(m):
            exps[m] = exps.get(m, 0) + k
            continue
        root, e = _perfect_power(m)
        if e > 1:
            pending.append((root, k * e))
            continue
        d, budget = _pollard_brent(m, budget)
        pending += [(d, k), (m // d, k)]
    return exps


def _is_prime(n: int) -> bool:
    """Primality for n with no prime factor below _TRIAL_BOUND: deterministic
    Miller-Rabin below psi_13, BPSW above."""
    if n < _PSI_13:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    out = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                out = -out
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (Baillie and Wagstaff
    1980) for odd n > 1 with no small prime factor."""
    if isqrt(n) ** 2 == n:
        return False  # Selfridge's search for D never ends on a square
    dd = 5
    while (j := _jacobi(dd, n)) != -1:
        if j == 0:
            return False  # |dd| < n shares a factor with n
        dd = -dd - 2 if dd > 0 else -dd + 2
    p, q = 1, (1 - dd) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    u, v, qk = 1, p, q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (p * u + v) * half % n, (dd * u + p * v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, e) with n = r**e and e as large as possible, for n with no prime
    factor below _TRIAL_BOUND (so e * log2(_TRIAL_BOUND) < bit length)."""
    for e in range(n.bit_length() // 9, 1, -1):
        r = iroot(n, e)
        if r is not None:
            return r, e
    return n, 1


def _pollard_brent(n: int, budget: int) -> tuple[int, int]:
    """(d, budget left) with d a proper factor of the odd composite n, not a
    perfect power, by Brent's variant of Pollard rho with batched gcds."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                raise DomainNotFactorable(f"{n} has no prime factor the rho budget can reach")
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


@dataclass(frozen=True)
class SignedFactored:
    """sign * prod p**e, the exact exponent-vector form of a nonzero rational."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise BadParameters("sign must be +1 or -1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise BadParameters("factors must be sorted with distinct primes")
        if any(e == 0 for _, e in self.factors):
            raise BadParameters("zero exponents must be dropped")

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.factors:
            v *= Fraction(p) ** e
        return v

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)

    def is_positive(self) -> bool:
        return self.sign == 1

    def is_one_in_magnitude(self) -> bool:
        return not self.factors


def dep_exponent(a: Fraction, b: Fraction) -> Fraction | None:
    """q with a = b**q for positive rationals, or None when independent.

    The relation "a ~ b iff a = b**q for some rational q != 0" partitions the
    positive rationals into classes; this computes the witness exponent
    without factoring: the exponents of a and b over a coprime base of their
    numerators and denominators must be proportional.
    """
    if a <= 0 or b <= 0:
        raise BadParameters("dep_exponent is defined on positive rationals")
    base = _coprime_base((a.numerator, a.denominator, b.numerator, b.denominator))
    ea, eb = ([_valuation(x.numerator, p) - _valuation(x.denominator, p) for p in base] for x in (a, b))
    if not any(ea) or not any(eb):
        return Fraction(1) if ea == eb else None  # 1 ~ 1 only
    q = next(Fraction(x, y) for x, y in zip(ea, eb) if y)
    return q if all(x == q * y for x, y in zip(ea, eb)) else None


def _coprime_base(xs) -> list[int]:
    """Pairwise coprime ints > 1 whose powers multiply to each x in xs.
    Splitting two members with a common factor g into g and the cofactors
    lowers the product of all members, so this ends."""
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
            todo += [z for z in (g, x // g, y // g) if z > 1]
    return base


def _valuation(x: int, p: int) -> int:
    """The largest e with p**e dividing x, for x >= 1 and p > 1."""
    e = 0
    while x % p == 0:
        x, e = x // p, e + 1
    return e


def relations(values) -> list[list[int]]:
    """Primitive integer relations among the magnitudes of nonzero rationals.

    Each relation e has prod |values[i]|**e[i] = 1 with coprime entries, and
    together they span all such relations over Q: a nullspace basis of the
    prime exponent matrix, empty exactly when the magnitudes are
    multiplicatively independent. values may be given in SignedFactored form.
    """
    exps = [(v if isinstance(v, SignedFactored) else factor(v)).exponents() for v in values]
    primes = sorted({p for e in exps for p in e})
    rows = [[e.get(p, 0) for e in exps] for p in primes] or [[0] * len(exps)]
    out = []
    for rel, _ in nullspace(rows):
        g = gcd(*rel)
        out.append([x // g for x in rel])
    return out


@dataclass(frozen=True)
class LatticeVector:
    """Exponents of x over a lattice's generators, with the sign split off."""

    sign: int
    exps: tuple[Fraction, ...]

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.exps)


@dataclass(frozen=True)
class MulLattice:
    """Finitely generated subgroup of R*: {+-1} x <g_1, ..., g_m>, g_i > 0.

    Generators must have Q-linearly independent prime exponent vectors, which
    is certified exactly at construction time.
    """

    generators: tuple[SignedFactored, ...]

    def __post_init__(self):
        if not self.generators:
            raise TooFewGenerators("a lattice needs at least one generator")
        if any(not g.is_positive() for g in self.generators):
            raise BadParameters("lattice generators must be positive; the sign -1 is implicit")
        if any(g.is_one_in_magnitude() for g in self.generators):
            raise BadParameters("1 generates nothing")
        if relations(self.generators):
            raise BadParameters("generator exponent vectors are Q-linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.generators)


def make_lattice(*gens) -> MulLattice:
    """Lattice from positive rationals (Fractions or ints)."""
    return MulLattice(tuple(factor(Fraction(g)) for g in gens))


def lattice_decompose(x: SignedFactored | Fraction, lat: MulLattice) -> LatticeVector | None:
    """Solve x = sign * prod gen_i**v_i with rational v_i, or None (NotInLattice).

    Rational exponents cover the divisible hull, which is what class transport
    (lambda = mu**q) needs; integral vectors mean genuine subgroup membership.
    """
    sf = x if isinstance(x, SignedFactored) else factor(Fraction(x))
    primes = sorted(
        {p for g in lat.generators for p, _ in g.factors} | {p for p, _ in sf.factors}
    )
    a = [
        [Fraction(g.exponents().get(p, 0)) for g in lat.generators]
        for p in primes
    ]
    b = [Fraction(sf.exponents().get(p, 0)) for p in primes]
    v = solve(a, b)
    if v is None:
        return None
    return LatticeVector(sf.sign, tuple(v))


def in_subgroup(x: Fraction, lat: MulLattice) -> bool:
    vec = lattice_decompose(x, lat)
    return vec is not None and vec.is_integral()


@dataclass(frozen=True)
class LatticeHom:
    """Multiplicative map on a MulLattice: gen_i -> image_i, -1 -> sign_image."""

    lattice: MulLattice
    images: tuple[Fraction, ...]
    sign_image: int = 1

    def __post_init__(self):
        if len(self.images) != len(self.lattice.generators):
            raise BadParameters("one image per generator required")
        if any(v == 0 for v in self.images):
            raise ZeroInput("images must be nonzero")
        if self.sign_image not in (+1, -1):
            raise BadParameters("sign image must be +1 or -1")

    def evaluate(self, x: Fraction) -> Fraction | None:
        """Exact value at a lattice element; None when x is outside the subgroup."""
        vec = lattice_decompose(x, self.lattice)
        if vec is None or not vec.is_integral():
            return None
        out = Fraction(1) if vec.sign == 1 else Fraction(self.sign_image)
        for img, e in zip(self.images, vec.exps):
            out *= img ** int(e)
        return out


def hom_on_lattice(lat: MulLattice, images, sign_image: int = 1) -> LatticeHom:
    return LatticeHom(lat, tuple(Fraction(v) for v in images), sign_image)


# ---------------------------------------------------------------------------
# circle lattices


@dataclass(frozen=True)
class AngleGen:
    """Unit-circle generator: exact rational angle (turns) or a symbolic one.

    `angle` is the fraction of a full turn for torsion generators and None for
    symbolic irrational angles; `witness` is the numeric value used in the
    ApproxC regime.
    """

    label: str
    angle: Fraction | None
    witness: complex

    def __post_init__(self):
        if abs(abs(self.witness) - 1.0) > 1e-9:
            raise BadParameters(f"witness for {self.label!r} is off the unit circle")
        if self.angle is not None:
            expected = cmath.exp(2j * cmath.pi * float(self.angle))
            if abs(expected - self.witness) > 1e-9:
                raise BadParameters(f"witness for {self.label!r} disagrees with its angle")

    def order(self) -> int | None:
        """Torsion order, or None for symbolic (declared torsion-free) generators."""
        if self.angle is None:
            return None
        return self.angle.denominator


def angle_gen(label: str, angle: Fraction | None = None, witness: complex | None = None) -> AngleGen:
    if angle is not None:
        angle = Fraction(angle) % 1
        witness = cmath.exp(2j * cmath.pi * float(angle))
    elif witness is None:
        raise BadParameters("symbolic generators need a numeric witness")
    return AngleGen(label, angle, witness)


@dataclass(frozen=True)
class CircleLattice:
    """Finitely generated subgroup of S^1 with declared independent generators."""

    generators: tuple[AngleGen, ...]

    def __post_init__(self):
        if not self.generators:
            raise TooFewGenerators("a circle lattice needs at least one generator")
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise BadParameters("generator labels must be distinct")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def value(self, exps) -> complex:
        out = complex(1.0)
        for g, e in zip(self.generators, exps):
            out *= g.witness ** int(e)
        return out

    def match(self, z: complex, bound: int = 6, tol: float = 1e-9) -> tuple[int, ...] | None:
        """Bounded search for exponents with value ~ z, used to read dets back."""
        m = len(self.generators)
        if bound ** m > 200000:
            bound = max(1, int(200000 ** (1.0 / m)) // 2)
        exps = [0] * m

        def rec(i: int):
            if i == m:
                if abs(self.value(exps) - z) <= tol:
                    return tuple(exps)
                return None
            for e in range(-bound, bound + 1):
                exps[i] = e
                hit = rec(i + 1)
                if hit is not None:
                    return hit
            exps[i] = 0
            return None

        return rec(0)


@dataclass(frozen=True)
class CircleHom:
    """Endomorphism data on a circle lattice: gen_j -> prod gen_i**M[j][i]."""

    lattice: CircleLattice
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.lattice.rank
        if len(self.images) != m or any(len(row) != m for row in self.images):
            raise BadParameters("images must be an m x m integer exponent matrix")
        for j, g in enumerate(self.lattice.generators):
            if g.order() is not None:
                row = self.images[j]
                onto_self = all(row[i] == 0 for i in range(m) if i != j)
                if not (onto_self and abs(row[j]) == 1):
                    raise BadParameters(
                        f"torsion generator {g.label!r} must map to itself with exponent +-1"
                    )

    def apply_exponents(self, exps) -> tuple[int, ...]:
        m = self.lattice.rank
        out = [0] * m
        for j, e in enumerate(exps):
            for i in range(m):
                out[i] += int(e) * self.images[j][i]
        return tuple(out)

    def evaluate(self, exps) -> complex:
        return self.lattice.value(self.apply_exponents(exps))
