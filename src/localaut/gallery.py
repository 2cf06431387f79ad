"""Curated examples separating pairwise interpolability from globality.

Each entry carries finite, re-checkable data and a certificate whose claim
is one of IsAutomorphism, IsLocalNotGlobal, PairwiseOnlyEvidence. The star
exhibit scales matrices of determinant 2, 3 and 6 = 2 * 3 so that every
pair of samples is matched by a genuine automorphism while the scalings
are not multiplicative; since the third sample is literally the product of
the first two, the homomorphism law fails on a concrete triple and no
single automorphism covers the whole map.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .autos import SIGMA_ID, STANDARD, apply, make_automorphism
from .errors import OddN, TooFewGenerators
from .localcheck import SampleMap, check_map
from .matrices import GroupTag, QR, det, equal, identity, mul, random_sl, ratio, scale_first, smul
from .scalarmaps import PowerFunc, check_character, det_relation_refutations, induced

H_VALUES = {Fraction(2): Fraction(2), Fraction(3): Fraction(9), Fraction(6): Fraction(6)}


@dataclass
class Certificate:
    claim: str  # IsAutomorphism | IsLocalNotGlobal | PairwiseOnlyEvidence
    evidence: list = field(default_factory=list)


@dataclass
class GalleryEntry:
    name: str
    description: str
    certificate: Certificate
    group: GroupTag | None = None
    sample_map: SampleMap | None = None
    artifacts: dict = field(default_factory=dict)


def gl_local_not_global(n: int = 3, seed: int = 0) -> GalleryEntry:
    """Samples of determinant 2, 3 and 6 scaled by 2, 9 and 6.

    phi(B) = h(det B) B with h(2) = 2, h(3) = 9, h(6) = 6. Every pair of
    samples is matched by an automorphism A -> g(det A) A because the two
    scalar conditions on g never force a relation; all three together
    would force h(6) = h(2) h(3) = 18, and the third sample is the product
    of the first two, so the failure h(6) = 6 != 18 is witnessed by one
    concrete matrix identity.
    """
    if n < 3:
        raise TooFewGenerators("n >= 3 is required")
    group = GroupTag("GL", "R", n)
    rng = random.Random(seed)
    b2 = scale_first(random_sl(n, QR, rng), Fraction(2), column=True)
    b3 = scale_first(random_sl(n, QR, rng), Fraction(3), column=True)
    b6 = mul(b2, b3)
    samples = tuple((b, smul(H_VALUES[det(b)], b)) for b in (b2, b3, b6))
    cert = Certificate(
        claim="IsLocalNotGlobal",
        evidence=[
            {"kind": "pairwise", "expect": "all pairs Interpolable"},
            {
                "kind": "violated_identity",
                "identity": "h(2) h(3) = h(6)",
                "lhs": str(H_VALUES[Fraction(2)] * H_VALUES[Fraction(3)]),
                "rhs": str(H_VALUES[Fraction(6)]),
            },
            {
                "kind": "product_pair",
                "detail": "sample 3 equals sample 1 times sample 2; the map scales it by 6, any homomorphism by 18",
            },
        ],
    )
    entry = GalleryEntry(
        name="gl_local_not_global",
        description="sampled GL map every pairwise check accepts but no automorphism explains",
        certificate=cert,
        group=group,
        sample_map=SampleMap(group, samples),
        artifacts={
            "h": {str(k): str(v) for k, v in H_VALUES.items()},
            "f_table_exact": {d: induced(d, H_VALUES[d], n) for d in H_VALUES},
        },
    )
    return entry


def additive_r(k: int = 2, scales=None) -> GalleryEntry:
    """A sampled self-map of a rank-k rational subspace of (R, +).

    The generators are formal symbols standing for Q-independent reals;
    points are their coordinate vectors. The map fixes every sampled line
    and scales it; with the default scales (generator two doubled, sums
    untouched) each pair of points is still matched by a Q-linear
    bijection, but phi(g1) + phi(g2) = g1 + 2 g2 differs from
    phi(g1 + g2) = g1 + g2. All scales 1 gives the identity, a global
    automorphism.
    """
    if k < 2:
        raise TooFewGenerators("the additive example needs at least 2 generators")
    points: list[tuple] = []
    for i in range(k):
        e = tuple(Fraction(1) if t == i else Fraction(0) for t in range(k))
        points.append(e)
    for i in range(k):
        for j in range(i + 1, k):
            s = tuple(
                Fraction(1) if t in (i, j) else Fraction(0) for t in range(k)
            )
            points.append(s)
    if scales is None:
        scales = [Fraction(2) if i == 1 else Fraction(1) for i in range(k)]
        scales += [Fraction(1)] * (len(points) - k)
    scales = [Fraction(s) for s in scales]
    if len(scales) != len(points):
        raise TooFewGenerators(f"need one scale per sampled point ({len(points)})")
    if any(s == 0 for s in scales):
        raise TooFewGenerators("zero scales collapse a line")

    pairs = [(p, tuple(s * c for c in p)) for s, p in zip(scales, points)]
    violations = _additive_violations(pairs)
    claim = "IsAutomorphism" if not violations else "IsLocalNotGlobal"
    evidence = [{"kind": "pairwise", "expect": "every pair matched by a Q-linear bijection"}]
    for x, y, z in violations:
        evidence.append(
            {
                "kind": "additivity_violation",
                "at": [_vec_str(x), _vec_str(y), _vec_str(z)],
            }
        )
    return GalleryEntry(
        name="additive_r",
        description="line-scaled map of a rational subspace of (R, +)",
        certificate=Certificate(claim=claim, evidence=evidence),
        artifacts={"k": k, "pairs": pairs},
    )


def _vec_str(v: tuple) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _vec_add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _additive_violations(pairs) -> list:
    img = {p: q for p, q in pairs}
    out = []
    pts = [p for p, _ in pairs]
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            s = _vec_add(pts[a], pts[b])
            if s in img and _vec_add(img[pts[a]], img[pts[b]]) != img[s]:
                out.append((pts[a], pts[b], s))
    return out


def additive_pair_ok(x: tuple, fx: tuple, y: tuple, fy: tuple) -> tuple[bool, str]:
    """Can one Q-linear bijection send x to fx and y to fy?

    Such a bijection preserves dependence with exact ratios and sends
    independent pairs to independent pairs (and, with at least two
    dimensions, any independent pair to any other).
    """
    if any(c != 0 for c in x) and all(c == 0 for c in fx):
        return False, "a bijection cannot kill a nonzero point"
    if any(c != 0 for c in y) and all(c == 0 for c in fy):
        return False, "a bijection cannot kill a nonzero point"
    q = ratio(y, x)
    if q is not None:
        want = tuple(q * c for c in fx)
        if want != tuple(fy):
            return False, f"dependent points need the same ratio {q}"
        return True, "dependent pair transported"
    if ratio(fy, fx) is not None:
        return False, "independent points with dependent images"
    return True, "independent pair, free extension"


def sign_twist(n: int = 4, seed: int = 0) -> GalleryEntry:
    """The automorphism A -> sign(det A) A of GL_n(R), n even.

    The scalar character g = sign flip on negatives lies in M1r exactly
    when n is even (f(t) = sign(t)^n t stays injective); odd n is refused.
    """
    if n % 2:
        raise OddN("f(t) = sign(t)^n t = |t| is not injective on R* for odd n")
    g = PowerFunc(Fraction(0), "flip")
    group = GroupTag("GL", "R", n)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, identity(n, QR), g)
    cert = Certificate(
        claim="IsAutomorphism",
        evidence=[
            {"kind": "class_check", "expect": "g in M1r at even n"},
            {
                "kind": "homomorphism",
                "expect": "phi(AB) = phi(A) phi(B) on seeded pairs with negative determinants",
            },
        ],
    )
    return GalleryEntry(
        name="sign_twist",
        description="sign character twist, a genuine automorphism for even n",
        certificate=cert,
        group=group,
        artifacts={"auto": auto, "n": n, "g": g, "seed": seed},
    )


GALLERY = ("gl_local_not_global", "additive_r", "sign_twist")


def build_entry(name: str, n: int | None = None, seed: int = 0) -> GalleryEntry:
    key = name.replace("-", "_")
    if key == "gl_local_not_global":
        return gl_local_not_global(3 if n is None else n, seed)
    if key == "additive_r":
        return additive_r(2 if n is None else n)
    if key == "sign_twist":
        return sign_twist(4 if n is None else n, seed)
    raise KeyError(f"unknown gallery entry {name!r}; have {list(GALLERY)}")


def verify_entry(entry: GalleryEntry, seed: int = 0) -> dict:
    """Re-run every check an entry's certificate claims; 'ok' means all held."""
    if entry.name == "gl_local_not_global":
        report = check_map(entry.sample_map, seed=seed)
        counts = report.counts()
        pairwise_ok = report.status == "LocallyConsistent"
        h2, h3, h6 = (H_VALUES[Fraction(d)] for d in (2, 3, 6))
        identity_violated = h2 * h3 != h6
        (b2, o2), (b3, o3), (b6, o6) = entry.sample_map.samples
        product_violated = equal(mul(b2, b3), b6) and not equal(mul(o2, o3), o6)
        refs = det_relation_refutations(entry.artifacts["f_table_exact"])
        return {
            "ok": pairwise_ok and identity_violated and product_violated and bool(refs),
            "map_status": report.status,
            "pair_counts": counts,
            "identity": f"h(2) h(3) = {h2 * h3} vs h(6) = {h6}",
            "product_pair_fails_homomorphism": product_violated,
            "relation_refutations": refs,
        }
    if entry.name == "additive_r":
        pairs = entry.artifacts["pairs"]
        pair_verdicts = []
        all_ok = True
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                ok, why = additive_pair_ok(*pairs[a], *pairs[b])
                pair_verdicts.append((_vec_str(pairs[a][0]), _vec_str(pairs[b][0]), ok, why))
                all_ok = all_ok and ok
        violations = _additive_violations(pairs)
        expect_violation = entry.certificate.claim == "IsLocalNotGlobal"
        return {
            "ok": all_ok and (bool(violations) == expect_violation),
            "pairwise_ok": all_ok,
            "pair_verdicts": pair_verdicts,
            "violations": [
                [_vec_str(x), _vec_str(y), _vec_str(z)] for x, y, z in violations
            ],
        }
    if entry.name == "sign_twist":
        auto = entry.artifacts["auto"]
        n = entry.artifacts["n"]
        class_ok = check_character(auto.group, auto.kind == STANDARD, auto.sigma, entry.artifacts["g"]).ok
        rng = random.Random(seed)
        hom_ok = True
        for _ in range(20):
            a = scale_first(random_sl(n, QR, rng), Fraction(rng.choice([-2, -1, 1, 3])), column=True)
            b = scale_first(random_sl(n, QR, rng), Fraction(rng.choice([-3, -1, 1, 2])), column=True)
            if not equal(apply(auto, mul(a, b)), mul(apply(auto, a), apply(auto, b))):
                hom_ok = False
                break
        return {"ok": class_ok and hom_ok, "class_check": class_ok, "homomorphism": hom_ok}
    raise KeyError(f"unknown gallery entry {entry.name!r}")
