"""Automorphisms of the classical matrix groups in canonical form.

Every automorphism handled here is determined by four ingredients: an
invertible (unitary, for the isometry groups) conjugating matrix T, an
entrywise field automorphism sigma (identity or complex conjugation), a
kind flag selecting A versus the contragredient transpose-inverse, and a
multiplicative scalar character g applied to the determinant:

    GL:  A -> g(det A) * T sigma(A)^(+-) T^-1     g in M1r resp. M2r
    SL:  A ->            T sigma(A)^(+-) T^-1
    Un:  A -> g(det sigma(A)) * T sigma(A) T^-1   g in Mu, T unitary
    SUn: A ->            T sigma(A) T^-1          T unitary

The unitary families absorb the contragredient kind into sigma, so it is
rejected there rather than silently normalized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadParameters,
    DetOutsideLattice,
    GroupMismatch,
    IllegalScalarClass,
    IllegalSigma,
    NonUnitaryT,
    NotInGroup,
    RegimeMismatch,
    SingularT,
)
from .matrices import (
    C64,
    GroupTag,
    Mat,
    apply_sigma,
    close,
    conj_transpose,
    det,
    identity,
    inv,
    member,
    mul,
    smul,
    transpose,
)
from .scalarmaps import (
    CIRCLE,
    CSTAR,
    RSTAR,
    CircleHomFunc,
    PowerConjFunc,
    PowerFunc,
    TableFunc,
    check_M1r,
    check_M2r,
    check_Mu,
    evaluate,
)
from .scalars import DEFAULT_TOL

STANDARD = "standard"
CONTRAGREDIENT = "contragredient"
SIGMA_ID = "id"
SIGMA_CONJ = "conj"


@dataclass
class Automorphism:
    group: GroupTag
    kind: str
    sigma: str
    t: Mat
    g: object | None = None
    _tinv: Mat | None = field(default=None, repr=False, compare=False)

    @property
    def tinv(self) -> Mat:
        if self._tinv is None:
            self._tinv = inv(self.t)
        return self._tinv


def make_automorphism(
    group: GroupTag,
    kind: str,
    sigma: str,
    t: Mat,
    g=None,
    tol: float = DEFAULT_TOL,
) -> Automorphism:
    """Validate the four ingredients against the canonical form for group."""
    if kind not in (STANDARD, CONTRAGREDIENT):
        raise BadParameters(f"unknown kind {kind!r}")
    if sigma not in (SIGMA_ID, SIGMA_CONJ):
        raise IllegalSigma(f"unknown sigma {sigma!r}")
    if group.field == "R" and sigma == SIGMA_CONJ:
        raise IllegalSigma("conjugation is trivial on R; use sigma='id'")
    if t.n != group.n:
        raise BadParameters(f"T is {t.n}x{t.n} but the group needs n={group.n}")
    if t.regime not in group.regimes():
        raise RegimeMismatch(f"regime {t.regime} does not carry {group.family} over {group.field}")
    try:
        tinv = inv(t)
    except Exception as exc:
        raise SingularT("T must be invertible") from exc
    if group.unitary:
        if kind == CONTRAGREDIENT:
            raise BadParameters(
                "unitary groups absorb the contragredient kind; use sigma='conj' instead"
            )
        if not close(mul(conj_transpose(t), t), identity(t.n, t.regime), tol):
            raise NonUnitaryT("T must be unitary for the isometry groups")
    _validate_scalar(group, kind, g)
    return Automorphism(group, kind, sigma, t, g, tinv)


def _validate_scalar(group: GroupTag, kind: str, g) -> None:
    n = group.n
    if group.family in ("SL", "SUn"):
        if g is not None:
            raise IllegalScalarClass(f"{group.family} automorphisms carry no scalar character")
        return
    if group.family == "GL":
        if g is None:
            return
        if group.field == "R":
            if getattr(g, "ambient", None) != RSTAR:
                raise IllegalScalarClass("GL over R needs a scalar map on R*")
            res = check_M1r(g, n) if kind == STANDARD else check_M2r(g, n)
            if not res.ok:
                raise IllegalScalarClass(res.reason)
            return
        # GL over C: the exact-arithmetic family g(z) = |z|^(2k), k rational
        if isinstance(g, TableFunc) and g.ambient == CSTAR:
            return  # witness-grade partial data; verified against samples
        if isinstance(g, PowerConjFunc):
            if g.k != g.m:
                raise IllegalScalarClass(
                    "g(z) = z^k conj(z)^m needs k = m for f to stay bijective"
                )
            e = 2 * n * Fraction(g.k) + (1 if kind == STANDARD else -1)
            if e == 0:
                raise IllegalScalarClass("f collapses all magnitudes: |z|^0")
            return
        raise IllegalScalarClass("GL over C supports the |z|^(2k) family here")
    # Un
    if g is None:
        return
    if isinstance(g, TableFunc) and g.ambient == CIRCLE:
        return  # witness-grade partial data; verified against samples elsewhere
    if getattr(g, "ambient", None) != CIRCLE:
        raise IllegalScalarClass("U_n needs a scalar map on the circle")
    res = check_Mu(g, n)
    if not res.ok:
        raise IllegalScalarClass(res.reason)


def op(a: Mat, kind: str, sigma: str) -> Mat:
    """The branch (kind, sigma) of A: sigma(A), transposed and inverted for
    the contragredient kind. Every canonical form conjugates it by T."""
    b = apply_sigma(a, sigma)
    return transpose(inv(b)) if kind == CONTRAGREDIENT else b


def apply(auto: Automorphism, a: Mat, tol: float = DEFAULT_TOL, check: bool = True) -> Mat:
    """phi(A). Raises NotInGroup for inputs outside the carrier group and
    DetOutsideLattice when g has no exact value at det A. check=False skips
    the membership test for callers that already know the input is valid
    (bulk property suites)."""
    if a.n != auto.group.n:
        raise BadParameters(f"matrix is {a.n}x{a.n}, group needs {auto.group.n}")
    if a.regime != auto.t.regime:
        raise RegimeMismatch(f"matrix regime {a.regime} vs T regime {auto.t.regime}")
    if check and not member(a, auto.group, tol):
        raise NotInGroup(f"input is not in {auto.group.family}_{auto.group.n}")
    out = mul(mul(auto.t, op(a, auto.kind, auto.sigma)), auto.tinv)
    if auto.g is None:
        return out
    d = det(a)
    if auto.group.family == "Un" and auto.sigma == SIGMA_CONJ:
        d = d.conjugate()
    val = _scalar_value(auto.g, d, a.regime, tol)
    return smul(val, out)


def _scalar_value(g, d, regime: str, tol: float):
    if isinstance(g, TableFunc) and g.ambient == CIRCLE:
        if regime != C64:
            raise RegimeMismatch("numeric circle tables need the ApproxC regime")
        val = g.lookup(d, tol=max(tol, 1e-8))
        if val is None:
            raise DetOutsideLattice(f"g has no recorded value near det = {d}")
        return val
    if isinstance(g, CircleHomFunc):
        lat = g.hom.lattice
        exps = lat.match(complex(d))
        if exps is None:
            raise DetOutsideLattice(f"det = {d} is outside the declared circle lattice")
        if regime != C64:
            raise RegimeMismatch("circle lattice characters evaluate numerically")
        return g.hom.evaluate(exps)
    val = evaluate(g, d)
    if val is None:
        raise DetOutsideLattice(f"g has no exact value at det = {d}")
    return val


def compose(outer: Automorphism, inner: Automorphism) -> Automorphism:
    """outer after inner, in canonical form again.

    Closed under composition only for power-type scalar characters; lattice
    and table data would need values at new points, so those raise.
    """
    if outer.group != inner.group:
        raise GroupMismatch("can only compose automorphisms of the same group")
    group = outer.group
    n = group.n
    sigma = SIGMA_CONJ if (outer.sigma != inner.sigma) else SIGMA_ID
    kind = STANDARD if (outer.kind == inner.kind) else CONTRAGREDIENT
    # conjugating matrix: T = T2 op2(T1), op2 the outer map's branch
    t = mul(outer.t, op(inner.t, outer.kind, outer.sigma))
    g = _compose_scalars(outer, inner, n)
    return make_automorphism(group, kind, sigma, t, g)


def _power_data(g, n: int, kind: str):
    """(c, flip, e) for power-type g: the exponent of g, the sign twist, and
    the exponent of the induced determinant map f."""
    if g is None:
        c = Fraction(0)
        flip = False
    elif isinstance(g, PowerFunc):
        c = g.c
        flip = g.neg == "flip"
    elif isinstance(g, PowerConjFunc):
        if g.k != g.m:
            raise BadParameters("only the |z|^(2k) family composes in closed form")
        c = Fraction(2) * Fraction(g.k)
        flip = False
    else:
        raise BadParameters(f"{type(g).__name__} does not compose in closed form")
    e = n * c + (1 if kind == STANDARD else -1)
    return c, flip, e


def _compose_scalars(outer: Automorphism, inner: Automorphism, n: int):
    group = outer.group
    if group.family in ("SL", "SUn"):
        return None
    if group.family == "Un":
        k1 = _circle_power(inner.g)
        k2 = _circle_power(outer.g)
        e1 = n * k1 + 1
        k = e1 * k2 + k1
        if k == 0:
            return None
        return PowerFunc(Fraction(k), ambient=CIRCLE)
    c1, flip1, e1 = _power_data(inner.g, n, inner.kind)
    c2, flip2, e2 = _power_data(outer.g, n, outer.kind)
    # det phi1(A) = f1(det A); the outer scalar sees it, the inner scalar
    # passes through the outer conjugation (inverted by a contragredient)
    eps = -1 if outer.kind == CONTRAGREDIENT else 1
    c = e1 * c2 + eps * c1
    flip = flip1 != flip2  # a reciprocal keeps the sign, so flips add mod 2
    if group.field == "C":
        if flip:
            raise BadParameters("sign twists do not arise over C")
        if c == 0:
            return None
        half = c / 2
        return PowerConjFunc(half, half)
    if c == 0 and not flip:
        return None
    return PowerFunc(c, "flip" if flip else "same")


def _circle_power(g) -> int:
    if g is None:
        return 0
    if isinstance(g, PowerFunc) and g.ambient == CIRCLE:
        return int(g.c)
    raise BadParameters(f"{type(g).__name__} does not compose in closed form on the circle")


def invert(auto: Automorphism) -> Automorphism:
    """The inverse automorphism, again in canonical form (power-type g only)."""
    group = auto.group
    n = group.n
    sigma = auto.sigma
    if auto.kind == STANDARD:
        s = apply_sigma(auto.tinv, sigma)
    else:
        s = apply_sigma(transpose(auto.t), sigma)
    if group.family in ("SL", "SUn"):
        return make_automorphism(group, auto.kind, sigma, s, None)
    if group.family == "Un":
        k = _circle_power(auto.g)
        e = n * k + 1
        if abs(e) != 1:
            raise BadParameters("scalar map is not invertible")
        kp = -k * e  # solves e * kp + k = 0 against f inverse exponent 1/e = e
        g = PowerFunc(Fraction(kp), ambient=CIRCLE) if kp else None
        return make_automorphism(group, STANDARD, sigma, s, g)
    c, flip, e = _power_data(auto.g, n, auto.kind)
    if e == 0:
        raise BadParameters("scalar map is not invertible")
    if auto.kind == STANDARD:
        cp = -c / e
    else:
        cp = c / e
    if group.field == "C":
        g = PowerConjFunc(cp / 2, cp / 2) if cp != 0 else None
    else:
        g = PowerFunc(cp, "flip" if flip else "same") if (cp != 0 or flip) else None
    return make_automorphism(group, auto.kind, sigma, s, g)


def agree_on(auto1: Automorphism, auto2: Automorphism, samples, tol: float = DEFAULT_TOL) -> bool:
    """Do two automorphisms take the same values on every sample?"""
    for a in samples:
        if not close(apply(auto1, a, tol), apply(auto2, a, tol), tol):
            return False
    return True

