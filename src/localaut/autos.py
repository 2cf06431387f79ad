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
rejected there rather than silently normalized. Which character a group
may carry and its value at det A are decided in scalarmaps; this module
does no class arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BadParameters,
    IllegalScalarClass,
    IllegalSigma,
    NonUnitaryT,
    NotInGroup,
    RegimeMismatch,
    SingularT,
)
from .matrices import (
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
from .scalarmaps import character_point, character_value, check_character
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
    tinv: Mat = field(repr=False, compare=False)
    g: object | None = None


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
    res = check_character(group, kind == STANDARD, sigma, g)
    if not res.ok:
        raise IllegalScalarClass(res.reason)
    return Automorphism(group, kind, sigma, t, tinv, g)


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
    d = character_point(auto.group, auto.sigma, det(a))
    return smul(character_value(auto.g, d, a.regime, tol), out)

