"""Scalar character classes and their local (pairwise) closures.

A first-kind GL_n(R) automorphism carries a multiplicative g with
f(t) = g(t)^n t an automorphism of R* (class M1r); the contragredient kind
uses f(t) = g(t)^n / t (class M2r); U_n uses the circle analog (class Mu).
Local automorphisms only pin g down pairwise, which is decided here exactly
on factored rationals: class transport for dependent arguments, class
injectivity for independent ones, and the sign/parity rules. This is the one
module that knows these rules: which character each group carries and the
point it reads (`ambient`, `character_point`), the exponent reader of power
characters, the one class verdict `check_character` with its one table
screen `table_screen` on every ambient, the R*, C* and circle pair screens
behind `pair_screen`, the witness tables of `witness_character` and the
relation detector all live here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from cmath import inf, isfinite
from math import log2

from .errors import (
    AmbientMismatch,
    BadParameters,
    DetOutsideLattice,
    RegimeMismatch,
    TooFewGenerators,
    ZeroInput,
)
from .mullattice import dep_exponent, relations, subgroup_exponents
from .matrices import C64, scalar_close
from .scalars import FIT_TOL, POINT_TOL, GaussRational, rational_pow

RSTAR = "Rstar"
CIRCLE = "Circle"
CSTAR = "Cstar"
# the largest exact power evaluate computes, in bits: on a 2-CPU Xeon,
# verify-auto (200 pairs) of a power character whose values reach 2^19 bits
# took 12.4 s on gl-r-3 and 14.3 s on gl-r-16 (4.0 s and 5.7 s at 2^18), and
# past 600 s at 2^22; an n = 16 apply of 153 nonzero entries at 2^19 bits
# prints its 24 MB report in 62 s (Python's int-to-str is quadratic)
MAX_POWER_BITS = 1 << 19


@dataclass(frozen=True)
class PowerFunc:
    """g(t) = |t|^c on positives with g(-t) = +-g(t); on the circle, z -> z^c."""

    c: Fraction
    neg: str = "same"  # "same" | "flip"
    ambient: str = RSTAR

    def __post_init__(self):
        if self.neg not in ("same", "flip"):
            raise BadParameters("neg must be 'same' or 'flip'")
        if self.ambient == CIRCLE and self.c.denominator != 1:
            raise BadParameters("circle powers need integer exponents")
        if self.ambient == CIRCLE and self.neg == "flip":
            raise BadParameters("the sign twist lives on R*; circle powers take neg='same'")
        if self.ambient not in (RSTAR, CIRCLE):
            raise AmbientMismatch("PowerFunc lives on Rstar or Circle")


@dataclass(frozen=True)
class PowerConjFunc:
    """g(z) = z^k conj(z)^m on C*.

    Integer exponents evaluate exactly on Gaussian rationals. The k = m
    diagonal, g(z) = |z|^(2k), also admits rational k (it is the only part
    of the family closed under composition and inversion) and evaluates
    through |z|^2, which stays rational.
    """

    k: Fraction | int
    m: Fraction | int
    ambient = CSTAR  # a class constant, not a field

    def __post_init__(self):
        kf, mf = Fraction(self.k), Fraction(self.m)
        if (kf.denominator != 1 or mf.denominator != 1) and kf != mf:
            raise BadParameters("fractional exponents need k = m")


@dataclass(frozen=True)
class LatticeFunc:
    """The multiplicative g on {+-1} x <generators> in R* with
    g(generators[i]) = images[i] and g(-1) = sign_image: the computable
    piece of a GL_n(R) character. The generators are positive and
    certified multiplicatively independent here; generators and images are
    stored as Fractions (ints are accepted)."""

    generators: tuple[Fraction, ...]
    images: tuple[Fraction, ...]
    sign_image: int = 1
    ambient = RSTAR  # a class constant, not a field

    def __post_init__(self):
        gens = tuple(Fraction(x) for x in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "images", tuple(Fraction(v) for v in self.images))
        if not gens:
            raise TooFewGenerators("a lattice needs at least one generator")
        if any(x <= 0 for x in gens):
            raise BadParameters("lattice generators must be positive; the sign -1 is implicit")
        if any(x == 1 for x in gens):
            raise BadParameters("1 generates nothing")
        if relations(gens):
            raise BadParameters("generator exponent vectors are Q-linearly dependent")
        if len(self.images) != len(gens):
            raise BadParameters("one image per generator required")
        if any(v == 0 for v in self.images):
            raise ZeroInput("images must be nonzero")
        if self.sign_image not in (+1, -1):
            raise BadParameters("sign image must be +1 or -1")


@dataclass(frozen=True)
class TableFunc:
    """Finite table of (point, value) pairs: the witness-grade partial
    scalar map. Exact Fraction points on R*, exact GaussRational points on
    C*, numeric complex points on the circle."""

    points: tuple
    ambient: str = RSTAR

    def lookup(self, x, tol: float = FIT_TOL):
        """The value at x, or None: exact on R* and C*, within tol on the circle."""
        if self.ambient == CIRCLE:
            x = complex(x)
            return next((v for a, v in self.points if abs(a - x) <= tol), None)
        return next((v for a, v in self.points if a == x), None)


MulFunc = PowerFunc | PowerConjFunc | LatticeFunc | TableFunc


def _check_power(x, e) -> None:
    """Raise BadParameters, before the exact x**e is computed, when it
    would pass MAX_POWER_BITS bits. For x = (a + b i) / d in lowest terms
    the gauge is |e| log2 max(|a + b i|, d), the bit size of the larger of
    x**e's numerator and denominator; it is 0 for +-1 and +-i, whose
    powers always pass. Float scalars are not gauged."""
    if isinstance(x, complex):
        return
    if isinstance(x, GaussRational):
        a, b, d = x.p, x.s, x.q
    else:
        x = Fraction(x)
        a, b, d = x.numerator, 0, x.denominator
    if abs(e) * Fraction(log2(max(a * a + b * b, d * d))) > 2 * MAX_POWER_BITS:
        raise BadParameters(f"g's exponent {e} takes its exact value past {MAX_POWER_BITS} bits")


def evaluate(g, x):
    """Value of g at x; None when x is outside g's exact domain. Exact
    powers past MAX_POWER_BITS bits are refused, and so is a float value
    that overflows or underflows to 0 (both BadParameters)."""
    if isinstance(g, PowerFunc):
        if g.ambient == CIRCLE:
            _check_power(x, int(g.c))
            return x ** int(g.c)
        lam = Fraction(x)
        if lam == 0:
            raise ZeroInput("0 is outside R*")
        _check_power(lam, g.c)
        mag = rational_pow(abs(lam), g.c)
        if mag is None:
            return None
        if lam < 0 and g.neg == "flip":
            return -mag
        return mag
    if isinstance(g, PowerConjFunc):
        kf, mf = Fraction(g.k), Fraction(g.m)
        if isinstance(x, GaussRational):
            if kf.denominator != 1:
                # the |z|^(2k) diagonal with rational k
                _check_power(x.abs2(), kf)
                return rational_pow(x.abs2(), kf)
            k, m = int(kf), int(mf)
            _check_power(x, abs(k) + abs(m))
            return (x**k) * (x.conjugate() ** m)
        z = complex(x)
        try:
            if kf.denominator != 1:
                value = abs(z) ** (2 * float(kf))
            else:
                value = (z ** int(kf)) * (z.conjugate() ** int(mf))
        except OverflowError:
            value = inf
        # a product past the float range reads inf or nan without raising,
        # and a power below it reads 0, which no character takes
        if value == 0 or not isfinite(value):
            raise BadParameters(f"g's value at {z} leaves the machine float range")
        return value
    if isinstance(g, LatticeFunc):
        lam = Fraction(x)
        exps = subgroup_exponents(lam, g.generators)
        if exps is None:
            return None
        out = Fraction(1) if lam > 0 else Fraction(g.sign_image)
        for img, e in zip(g.images, exps):
            _check_power(img, e)
            out *= img**e
        return out
    if isinstance(g, TableFunc):
        return g.lookup(x)
    raise BadParameters(f"not a MulFunc: {type(g).__name__}")


def character_value(g, d, regime: str):
    """g at the determinant d of a matrix in regime, for applying an
    automorphism: numeric circle tables match d within FIT_TOL, everything
    else evaluates exactly. Raises DetOutsideLattice where g has no value."""
    if isinstance(g, TableFunc) and g.ambient == CIRCLE:
        if regime != C64:
            raise RegimeMismatch("numeric circle tables need the ApproxC regime")
        val = g.lookup(d)
        if val is None:
            raise DetOutsideLattice(f"g has no recorded value near det = {d}")
        return val
    val = evaluate(g, d)
    if val is None:
        raise DetOutsideLattice(f"g has no exact value at det = {d}")
    return val


# ---------------------------------------------------------------------------
# power characters: one exponent reader


def power_exponent(g) -> tuple[Fraction, bool]:
    """(c, flip) for a power-type character: g(t) = |t|^c, negated on
    negative t when flip, on R*; z -> z^c on the circle; c = 2k for
    g(z) = |z|^(2k) = PowerConjFunc(k, k) on C*."""
    if isinstance(g, PowerFunc):
        return Fraction(g.c), g.neg == "flip"
    if isinstance(g, PowerConjFunc) and g.k == g.m:
        return 2 * Fraction(g.k), False
    raise BadParameters(f"{type(g).__name__} is not a power character")


def f_exponent(c, n: int, first_kind: bool = True):
    """e with f(t) = t^e for g = t^c: n c + 1, or n c - 1 for the
    contragredient kind (the exponent form of `induced`)."""
    return n * c + (1 if first_kind else -1)


def power_character(c, flip: bool, group):
    """The power-type character (c, flip) on group's ambient, None when trivial."""
    if c == 0 and not flip:
        return None
    side = ambient(group)
    if side == CSTAR:
        return PowerConjFunc(c / 2, c / 2)
    return PowerFunc(c, "flip" if flip else "same", side)


# ---------------------------------------------------------------------------
# which character each group carries, and where it is read

# (family, field) -> the ambient of the group's character; SL_n and SU_n carry none
_AMBIENTS = {("GL", "R"): RSTAR, ("GL", "C"): CSTAR, ("Un", "C"): CIRCLE}


def ambient(group):
    """RSTAR (GL_n(R)), CSTAR (GL_n(C)), CIRCLE (U_n), or None."""
    return _AMBIENTS.get((group.family, group.field))


def character_point(group, sigma: str, d):
    """The point g reads on a matrix of determinant d: conj(d) on U_n under
    sigma = conj, whose form is g(det sigma(A)), and d otherwise."""
    return d.conjugate() if sigma == "conj" and ambient(group) == CIRCLE else d


def pair_screen(group, first_kind: bool, sigma: str, p, q) -> tuple[bool, str]:
    """(ok, why): can one character of the branch's class take the values
    p = (da, ca) and q = (db, cb) at the points `character_point` gives?
    Exact on R*; necessary conditions only on C* and the circle."""
    (da, ca), (db, cb) = p, q
    n, side = group.n, ambient(group)
    if side == CIRCLE:
        return pair_ok_mu(complex(da), complex(ca), complex(db), complex(cb), n)
    # C64 dets and candidates are floats: one value read off two samples
    # may differ in its last bits
    if scalar_close(da, db, FIT_TOL) and not scalar_close(ca, cb, FIT_TOL):
        return False, "one g cannot take two values at one determinant"
    if side == RSTAR:
        if da == db:
            return point_ok_rclass(Fraction(da), Fraction(ca), n, first_kind)
        return pair_ok_rclass((Fraction(da), Fraction(ca)), (Fraction(db), Fraction(cb)), n, first_kind)
    if sigma == "conj":
        # det phi(A) = g(d)^n conj(d)^(+-1): the induced map reads conj(d),
        # which has the torsion order and modulus of d
        da, db = da.conjugate(), db.conjugate()
    return pair_ok_cstar(da, ca, db, cb, n, first_kind)


def witness_character(group, points) -> TableFunc:
    """The table through points [(d, g(d)), ...] that passed `pair_screen`,
    on group's ambient, one entry per point: sorted on R*, in the given order
    on C* and the circle, where a point within POINT_TOL of an earlier one drops."""
    side = ambient(group)
    if side != CIRCLE:
        table = dict(points).items()
        return TableFunc(tuple(sorted(table) if side == RSTAR else table), side)
    table = []
    for d, c in points:
        if all(abs(complex(d) - e) > POINT_TOL for e, _ in table):
            table.append((complex(d), complex(c)))
    return TableFunc(tuple(table), CIRCLE)


@dataclass
class ClassCheck:
    """A class verdict: on refusal, why, the points it rests on and, for a
    relation step of `table_screen`, the relation with its broken product."""

    ok: bool
    reason: str = ""
    counterexample: tuple | None = None
    evidence: dict | None = None


# ---------------------------------------------------------------------------
# the induced determinant map and class transport


def induced(d, c, n: int, first_kind: bool = True):
    """f(d) = g(d)^n d, or g(d)^n / d for the contragredient kind, with
    c = g(d): the map the scalar character induces on determinants."""
    return c**n * d if first_kind else c**n / d


def transport(x: Fraction, hx: Fraction, y: Fraction, hy: Fraction) -> tuple[Fraction | None, bool]:
    """(q, ok) for a class map h through (x, hx) and (y, hy) on positive
    rationals: q with x = y^q (None when x and y are independent) and ok
    whether h(x) = h(y)^q, checked exactly as h(x)^den(q) == h(y)^num(q)."""
    q = dep_exponent(x, y)
    return q, q is None or hx**q.denominator == hy**q.numerator


# ---------------------------------------------------------------------------
# single-point and pairwise membership on R*


def point_ok_rclass(lam: Fraction, v: Fraction, n: int, first_kind: bool) -> tuple[bool, str]:
    """Can some g in M1r (or M2r) take the value v at lam?"""
    if lam == 0 or v == 0:
        return False, "0 is outside R*"
    if lam > 0 and v <= 0:
        return False, f"g({lam}) must be positive"
    if lam < 0 and n % 2 == 1 and v <= 0:
        return False, f"n odd forces g({lam}) = g({-lam}) > 0"
    h = induced(lam, v, n, first_kind)
    if abs(lam) == 1:
        if abs(h) != 1:
            return False, f"|lam| = 1 but |f(lam)| = {abs(h)} != 1"
    else:
        if abs(h) == 1:
            return False, f"induced automorphism would send {lam} to {h}"
    return True, ""


def pair_ok_rclass(
    p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction], n: int, first_kind: bool
) -> tuple[bool, str]:
    """Pairwise interpolability by a single class member through both points.

    Necessary and sufficient on exact rationals: the induced automorphism
    values h = g^n * lam^(+-1) must respect the multiplicative dependence
    classes of |lam| (exact exponent transport when dependent, distinct
    image classes when independent), plus the sign/parity rules.
    """
    (lam, v), (mu, w) = p, q
    ok, why = point_ok_rclass(lam, v, n, first_kind)
    if not ok:
        return False, why
    ok, why = point_ok_rclass(mu, w, n, first_kind)
    if not ok:
        return False, why
    if n % 2 == 0 and lam < 0 and mu < 0 and (v > 0) != (w > 0):
        return False, "a single sign twist must serve all negative arguments"
    ha = abs(induced(lam, v, n, first_kind))
    hb = abs(induced(mu, w, n, first_kind))
    a, b = abs(lam), abs(mu)
    if a == 1 or b == 1:
        return True, ""  # the +-1 classes are pinned by the point conditions
    q, ok = transport(a, ha, b, hb)
    if not ok:
        return False, f"transport fails: f({lam}) should be f({mu})^{q}"
    if q is None and dep_exponent(ha, hb) is not None:
        return False, "independent arguments map into one class"
    return True, ""


# ---------------------------------------------------------------------------
# the class verdict


def check_character(group, first_kind: bool, sigma: str, g) -> ClassCheck:
    """May g scale an automorphism of group of the given kind and sigma?
    Nothing on SL and SU. On GL_n(R), f(t) = g(t)^n t^(+-1) must be a
    bijection of R* (class M1r, or M2r for the contragredient kind): read
    off the exponent of a power character. On GL_n(C), the |z|^(2k) family
    with bijective f; on U_n, z^k with f(z) = z^(nk + 1) an automorphism of
    the circle. A finite table on the group's ambient, and a lattice
    character as the table of its generators and -1, go through
    `table_screen`."""
    n, side = group.n, ambient(group)
    if g is None:
        return ClassCheck(True)
    if side is None:
        return ClassCheck(False, f"{group.family} automorphisms carry no scalar character")
    if isinstance(g, (TableFunc, LatticeFunc)) and g.ambient == side:
        if isinstance(g, TableFunc):
            points = g.points
        else:
            points = (*zip(g.generators, g.images), (Fraction(-1), Fraction(g.sign_image)))
        return table_screen(group, first_kind, sigma, points)
    if side == CSTAR:
        if not isinstance(g, PowerConjFunc):
            return ClassCheck(False, "GL over C supports the |z|^(2k) family here")
        if g.k != g.m:
            return ClassCheck(False, "g(z) = z^k conj(z)^m needs k = m for f to stay bijective")
        if f_exponent(power_exponent(g)[0], n, first_kind) == 0:
            return ClassCheck(False, "f collapses all magnitudes: |z|^0")
        return ClassCheck(True)
    if getattr(g, "ambient", None) != side:
        why = "GL over R needs a scalar map on R*" if side == RSTAR else "U_n needs a scalar map on the circle"
        return ClassCheck(False, why)
    c, flip = power_exponent(g)
    e = f_exponent(c, n, first_kind)
    if side == CIRCLE:
        if abs(e) == 1:
            return ClassCheck(True)
        return ClassCheck(False, f"f(z) = z^{e} is not injective on the circle")
    if e == 0:
        return ClassCheck(False, f"f(t) = t^{e} is not a bijection of (0, inf)")
    if flip and n % 2 == 1:
        return ClassCheck(False, "sign flip on negatives needs even n")
    return ClassCheck(True)


def table_screen(group, first_kind: bool, sigma: str, points) -> ClassCheck:
    """The class verdict on a character of group through the table points
    [(d, g(d)), ...], read at `character_point`, in the order given: every
    point, then every pair, through `pair_screen`. That decides tables of
    one and two points exactly on R*, and gives necessary conditions on C*
    and the circle. On R* with three or more points, |g| must then keep
    every relation among the |d|, and f must be injective: with the
    relations of the |d| kept, |f| may keep no other."""
    for p in points:
        ok, why = pair_screen(group, first_kind, sigma, p, p)
        if not ok:
            return ClassCheck(False, why, counterexample=(p[0],))
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            ok, why = pair_screen(group, first_kind, sigma, p, q)
            if not ok:
                return ClassCheck(False, why, counterexample=(p[0], q[0]))
    if ambient(group) != RSTAR or len(points) < 3:
        return ClassCheck(True)
    n = group.n
    # signs and d / -d pairs are pinned above, so magnitudes decide the rest
    broken = det_relation_refutations({abs(lam): abs(v) for lam, v in points})
    if broken:
        rel, product = broken[0]["relation"], broken[0]["image_product"]
        return ClassCheck(
            False,
            f"|g| breaks the relation {rel} among the dets: its image product is {product}, not 1",
            counterexample=tuple(Fraction(d) for d in rel),
            evidence=broken[0],
        )
    fs = sorted({abs(lam): abs(induced(lam, v, n, first_kind)) for lam, v in points}.items())
    for exps in relations([f for _, f in fs]):
        product = Fraction(1)
        for (a, _), e in zip(fs, exps):
            product *= a**e
        if product != 1:
            rel = {str(a): e for (a, _), e in zip(fs, exps) if e != 0}
            return ClassCheck(
                False,
                f"f is not injective: it keeps the relation {rel} among the dets, "
                f"whose product is {product}, not 1",
                counterexample=tuple(Fraction(d) for d in rel),
                evidence={"relation": rel, "det_product": str(product)},
            )
    return ClassCheck(True)


# ---------------------------------------------------------------------------
# (LAR) on a lattice


def check_LAR(h: LatticeFunc) -> ClassCheck:
    """(LAR) for a lattice homomorphism: h keeps (0, inf) inside (0, inf),
    the generator images are independent, which is property (P) on the
    lattice, and h(-t) = -h(t)."""
    if any(v <= 0 for v in h.images):
        return ClassCheck(False, "h must keep (0, inf) inside (0, inf)")
    if h.sign_image != -1:
        return ClassCheck(False, "h(-t) = -h(t) forces the sign image -1")
    if relations(h.images):
        return ClassCheck(False, "(P) fails: generator images are dependent")
    return ClassCheck(True, "(LAR) holds on the lattice")


# ---------------------------------------------------------------------------
# the circle class Mu


def pair_ok_mu(d1: complex, c1: complex, d2: complex, c2: complex, n: int) -> tuple[bool, str]:
    """Evidence-grade circle pair check for g in Mu through two det/value pairs.

    Certifiable necessary conditions only: unit moduli, and f(1) = 1 for the
    induced f, each within FIT_TOL.
    """
    for z, c in ((d1, c1), (d2, c2)):
        if abs(abs(z) - 1) > FIT_TOL or abs(abs(c) - 1) > FIT_TOL:
            return False, "circle data must stay on the circle"
    for z, c in ((d1, c1), (d2, c2)):
        if abs(z - 1) <= FIT_TOL and abs(induced(z, c, n) - 1) > FIT_TOL:
            return False, "f(1) must be 1"
    return True, ""


# ---------------------------------------------------------------------------
# C*: necessary conditions on exact Gaussian-rational data


def pair_ok_cstar(da, ca, db, cb, n: int, first_kind: bool) -> tuple[bool, str]:
    """Necessary conditions for a C* character through two det/value pairs:
    torsion preservation and magnitude transport of the induced f. Gaussian
    rationals carry torsion {1, 2, 4}; numeric data passes unchecked.

    |f| follows |d| only along a relation between d_a and d_b themselves:
    with |d_a|^2 = |d_b|^(2q), |f(d_a)|^2 = |f(d_b)|^(2q) is forced only
    when d_a^den(q) / d_b^num(q) is a root of unity. An infinite-order
    quotient on the circle may go anywhere under f."""
    if not isinstance(da, GaussRational):
        return True, ""
    fa, fb = induced(da, ca, n, first_kind), induced(db, cb, n, first_kind)
    for d, f in ((da, fa), (db, fb)):
        o = _unit_order(d)
        if o is not None and _unit_order(f) != o:
            return False, f"f must preserve the torsion order of {d}"
        if o is None and d.abs2() == 1 and _unit_order(f) is not None:
            return False, "infinite-order circle element maps to torsion"
    da2, db2 = da.abs2(), db.abs2()
    if da2 != 1 and db2 != 1:
        q, ok = transport(da2, fa.abs2(), db2, fb.abs2())
        if not ok and _unit_order(da**q.denominator / db**q.numerator) is not None:
            return False, "magnitude transport fails"
    return True, ""


# the roots of unity in Q(i) are +-1 and +-i, keyed by their grids (p, s, q)
_UNIT_ORDERS = {(1, 0, 1): 1, (-1, 0, 1): 2, (0, 1, 1): 4, (0, -1, 1): 4}


def _unit_order(z: GaussRational) -> int | None:
    """The multiplicative order of z when z is a root of unity, else None."""
    return _UNIT_ORDERS.get((z.p, z.s, z.q))


# ---------------------------------------------------------------------------
# global relation detector


def det_relation_refutations(table) -> list[dict]:
    """Integer multiplicative relations among the inputs that the outputs
    violate. table maps positive rationals to positive rationals; each
    violated relation is a certificate that no single multiplicative map
    passes through the whole table (pairwise checks cannot see these)."""
    items = sorted((Fraction(a), Fraction(v)) for a, v in (table.items() if isinstance(table, dict) else table))
    for a, v in items:
        if a <= 0 or v <= 0:
            raise BadParameters("the relation detector expects positive data")
    out = []
    for rel in relations([a for a, _ in items]):
        lhs = Fraction(1)
        for (_, v), e in zip(items, rel):
            lhs *= v**e
        if lhs != 1:
            out.append(
                {
                    "relation": {str(a): e for (a, _), e in zip(items, rel) if e != 0},
                    "image_product": str(lhs),
                }
            )
    return out
