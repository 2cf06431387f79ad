"""Pairwise interpolation tests for sampled maps on classical groups.

check_pair decides whether one automorphism in canonical form passes through
two input/output samples at once; check_map runs every unordered pair of a
sampled map. Over the rationals the verdicts are certificates: a witness
automorphism on the positive side, an exhaustive branch refutation on the
negative side. Interpolation branches are indexed by kind and sigma. In a GL
branch each sample A -> out fixes its scalar c = g(det A): out = c T op(A)
T^-1 gives c = tr(out) / tr(op(A)), exact, and the branch is refuted unless
c^n = det(out) / det(op(A)). A sample with tr(op(A)) = 0 gives c^g for some
g dividing n through a higher power sum; only then are roots taken, and a
root outside the ground field leaves the branch inconclusive. Numeric (C64)
samples take the n-th roots of the determinant ratio and certify nothing.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .autos import (
    CONTRAGREDIENT,
    SIGMA_CONJ,
    SIGMA_ID,
    STANDARD,
    Automorphism,
    apply,
    make_automorphism,
    op,
)
from .errors import BadParameters, NotInGroup, RegimeMismatch
from .matrices import (
    C64,
    QC,
    GroupTag,
    Mat,
    charpolys_match,
    close,
    det,
    member_det,
    mul,
    scalar_one,
    smul,
    to_c64,
    trace,
)
from .scalarmaps import ambient, character_point, pair_screen, witness_character
from .scalars import (
    DEFAULT_TOL,
    GQ_I,
    GQ_ONE,
    GaussRational,
    complex_nth_roots,
    rational_nth_root,
    real_nth_root_candidates,
)
from .similarity import simultaneous_similarity, unitary_intertwiner


@dataclass
class BranchReport:
    kind: str
    sigma: str
    outcome: str  # "witness" | "refuted" | "inconclusive"
    detail: str
    witness: Automorphism | None = None


@dataclass
class PairVerdict:
    status: str  # "Interpolable" | "Obstructed" | "Inconclusive"
    witness: Automorphism | None
    branches: list[BranchReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def refusal_reasons(self) -> list[str]:
        return [f"{b.kind}/{b.sigma}: {b.detail}" for b in self.branches if b.outcome == "refuted"]


def _group_branches(group: GroupTag) -> tuple[list[str], list[str]]:
    kinds = [STANDARD] if group.unitary else [STANDARD, CONTRAGREDIENT]
    sigmas = [SIGMA_ID] if group.field == "R" else [SIGMA_ID, SIGMA_CONJ]
    return kinds, sigmas


# ---------------------------------------------------------------------------
# the scalar of each sample


def _trace_scalars(x: Mat, y: Mat, ratio, n: int, d) -> tuple[list, bool, str]:
    """The ground-field values c = g(d) with y = c S x S^-1 for some S, as
    far as traces and determinants decide them: (candidates, exhaustive,
    why none).

    Such a c satisfies c^n = det y / det x = ratio and tr(y^k) = c^k tr(x^k)
    for every k. When tr x != 0 that is one exact candidate, refuted unless
    c^n = ratio. When tr x = 0, some p_k = tr(x^k) with k <= n is nonzero,
    as x is invertible (Newton's identities): c^k = tr(y^k) / p_k and
    c^n = ratio fix c^g for g = gcd(k, n), and c is one of its g-th roots.
    Such a root may lie outside the ground field, with S outside it too, so
    the list is exhaustive only when it holds every root in R or C. Over R
    an odd g with w = c^g < 0 leaves one real root, which is negative; it
    is refuted when g(d) must be positive, as it must be at d > 0 (a square)
    and everywhere for odd n (g(-1) = -1 would give f(-1) = f(1)).
    """
    px = trace(x)
    if px:
        c = trace(y) / px
        if c**n != ratio:
            return [], True, f"trace scalar {c}: c^{n} = {c**n} != det ratio {ratio}"
        return [c], True, ""
    xk, yk = x, y
    for k in range(2, n + 1):
        if trace(yk):
            return [], True, f"tr(out^{k - 1}) = {trace(yk)} but tr(op(A)^{k - 1}) = 0"
        xk, yk = mul(xk, x), mul(yk, y)
        px = trace(xk)
        if px:
            break
    ck = trace(yk) / px
    g, u, v = _bezout(k, n)
    if not ck or ck ** (n // g) != ratio ** (k // g):
        return [], True, f"c^{k} = {ck} from traces contradicts c^{n} = det ratio {ratio}"
    w = ck**u * ratio**v
    why = f"no exact root c of c^{g} = {w}"
    if isinstance(w, Fraction):
        roots = real_nth_root_candidates(w, g)
        if not roots and g % 2 and w < 0 and (d > 0 or n % 2):
            return [], True, f"c^{g} = {w} has only a negative real root, but g({d}) > 0"
        # no real root at all refutes; an irrational one stays open
        return roots, bool(roots) or (g % 2 == 0 and w < 0), why
    roots = _gauss_roots(w, g)
    # from one root in Q(i), every complex g-th root is in Q(i) iff g | 4
    return roots, bool(roots) and 4 % g == 0, why


def _bezout(k: int, n: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(k, n) = u k + v n."""
    if n == 0:
        return k, 1, 0
    g, u, v = _bezout(n, k % n)
    return g, v, u - (k // n) * v


def _gauss_roots(w: GaussRational, g: int) -> list:
    """The Gaussian rational solutions of c^g = w that a numeric root
    rationalizes to, possibly none.

    |c|^2 must be the rational g-th root of |w|^2. One exact root c0 gives
    all of them, as the roots of unity in Q(i) are the fourth roots: c0 z
    for z^4 = z^g = 1.
    """
    if rational_nth_root(w.abs2(), g) is None:
        return []
    try:
        approx = complex(w)
    except OverflowError:
        return []
    if not approx:
        return []
    for z in complex_nth_roots(approx, g):
        c0 = GaussRational(Fraction(z.real).limit_denominator(10**9), Fraction(z.imag).limit_denominator(10**9))
        if c0**g == w:
            return [c0 * u for u in (GQ_ONE, GQ_I, -GQ_ONE, -GQ_I) if u**g == GQ_ONE]
    return []


def _numeric_scalars(ratio: complex, n: int) -> tuple[list, bool, str]:
    """The numeric n-th roots of the determinant ratio: never a certificate."""
    z = complex(ratio)
    if not cmath.isfinite(z):
        return [], False, "numeric ratio outside the float range"
    return complex_nth_roots(z, n), False, ""


# ---------------------------------------------------------------------------
# the pair check


def check_pair(
    group: GroupTag,
    pair1: tuple[Mat, Mat],
    pair2: tuple[Mat, Mat],
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PairVerdict:
    """Is there one canonical-form automorphism through both samples?"""
    a, a_out = pair1
    b, b_out = pair2
    samples, read = (a, a_out, b, b_out), []
    for x in samples:
        ok, d = member_det(x, group, tol)
        if not ok:
            raise NotInGroup(f"sample outside {group.family}_{group.n}({group.field})")
        read.append(d)
    if group.unitary and a.regime == QC:
        # unitary witnesses need polar factors, which live in ApproxC
        p1 = (to_c64(a), to_c64(a_out))
        p2 = (to_c64(b), to_c64(b_out))
        return check_pair(group, p1, p2, seed, max(tol, 1e-8))
    kinds, sigmas = _group_branches(group)
    # the branches of a group with a character read these four determinants;
    # the GL membership test has read them already
    dets = None
    if ambient(group) is not None:
        dets = tuple(det(x) if d is None else d for x, d in zip(samples, read))
    verdict = PairVerdict("Obstructed", None)
    inconclusive = False
    for kind in kinds:
        for sigma in sigmas:
            br = _try_branch(group, kind, sigma, (a, a_out), (b, b_out), dets, seed, tol)
            verdict.branches.append(br)
            if br.outcome == "witness":
                verdict.status = "Interpolable"
                verdict.witness = br.witness
                if group.field == "C" and not group.unitary:
                    verdict.notes.append("C* screen: torsion orders, and |f| along relations up to roots of unity")
                return verdict
            if br.outcome == "inconclusive":
                inconclusive = True
    if inconclusive or a.regime == C64:
        verdict.status = "Inconclusive"
        if a.regime == C64 and not inconclusive:
            verdict.notes.append("numeric refusals are not certificates")
    return verdict


def _try_branch(group, kind, sigma, p1, p2, dets, seed, tol) -> BranchReport:
    a, a_out = p1
    b, b_out = p2
    a_op = op(a, kind, sigma)
    b_op = op(b, kind, sigma)
    if ambient(group) is None:
        return _similarity_step(group, kind, sigma, [(a_op, a_out), (b_op, b_out)], None, (p1, p2), seed, tol)
    da, da_out, db, db_out = dets
    # det op(A) = sigma(det A)^(+-1)
    eps = -1 if kind == CONTRAGREDIENT else 1
    dop_a, dop_b = ((d.conjugate() if sigma == SIGMA_CONJ else d) ** eps for d in (da, db))
    da, db = (character_point(group, sigma, d) for d in (da, db))
    n = group.n
    if a.regime == C64:
        found = [_numeric_scalars(dy / dx, n) for dx, dy in ((dop_a, da_out), (dop_b, db_out))]
    else:
        found = [
            _trace_scalars(x, y, dy / dx, n, d)
            for x, y, dx, dy, d in ((a_op, a_out, dop_a, da_out, da), (b_op, b_out, dop_b, db_out, db))
        ]
    (cands_a, _, _), (cands_b, _, _) = found
    empty = [(exhaustive, why) for cands, exhaustive, why in found if not cands]
    if empty:
        # one sample with no value at all refutes the branch, if its list is complete
        refuted = any(exhaustive for exhaustive, _ in empty)
        why = next(why for exhaustive, why in empty if exhaustive == refuted)
        return BranchReport(kind, sigma, "refuted" if refuted else "inconclusive", f"no scalar values ({why})")
    pending_inconclusive = None
    refusals = []
    for ca in cands_a:
        for cb in cands_b:
            ok, why = pair_screen(group, kind == STANDARD, sigma, (da, ca), (db, cb), tol)
            if not ok:
                refusals.append(f"g({da})={ca}, g({db})={cb}: {why}")
                continue
            one = scalar_one(a_out.regime)
            pairs = [(a_op, smul(one / ca, a_out)), (b_op, smul(one / cb, b_out))]
            br = _similarity_step(group, kind, sigma, pairs, [(da, ca), (db, cb)], (p1, p2), seed, tol)
            if br.outcome == "witness":
                return br
            if br.outcome == "inconclusive":
                pending_inconclusive = br
            else:
                refusals.append(f"scalars ({ca}, {cb}): {br.detail}")
    if pending_inconclusive is not None:
        return pending_inconclusive
    if not all(exhaustive for _, exhaustive, _ in found):
        return BranchReport(kind, sigma, "inconclusive", "scalar candidates may be incomplete")
    return BranchReport(kind, sigma, "refuted", "; ".join(refusals))


def _similarity_step(group, kind, sigma, pairs, points, originals, seed, tol) -> BranchReport:
    for x, y in pairs:
        if not charpolys_match(x, y):
            return BranchReport(kind, sigma, "refuted", "characteristic polynomials differ")
    if group.unitary:
        u = unitary_intertwiner(pairs, seed=seed, tol=max(tol, 1e-8))
        if u is None:
            return BranchReport(kind, sigma, "inconclusive", "no unitary intertwiner found")
        return _witness_report(group, kind, sigma, u, points, originals, tol, "unitary intertwiner")
    res = simultaneous_similarity(pairs, seed=seed, tol=tol)
    if res.status == "Solved":
        return _witness_report(
            group, kind, sigma, res.s, points, originals, tol, f"intertwiner space dim {res.dim}"
        )
    if res.status == "NoSolution":
        return BranchReport(kind, sigma, "refuted", res.note)
    return BranchReport(kind, sigma, "inconclusive", res.note)


def _witness_report(group, kind, sigma, t, points, originals, tol, detail) -> BranchReport:
    try:
        witness = make_automorphism(group, kind, sigma, t, tol=max(tol, 1e-8))
    except Exception as exc:
        return BranchReport(kind, sigma, "inconclusive", f"witness rejected: {exc}")
    if points is not None:
        # `pair_screen` passed the two points, which is the table screen of
        # their table, so g joins the witness without a second screen
        witness = replace(witness, g=witness_character(group, points))
    vtol = max(tol, 1e-7)  # exact regimes compare exactly whatever the tol
    for a, a_out in originals:
        if not close(apply(witness, a, vtol), a_out, vtol):
            return BranchReport(kind, sigma, "inconclusive", "witness failed sample verification")
    return BranchReport(kind, sigma, "witness", detail, witness)


# ---------------------------------------------------------------------------
# map-level checks


@dataclass
class SampleMap:
    group: GroupTag
    samples: tuple[tuple[Mat, Mat], ...]

    def __post_init__(self):
        for a, out in self.samples:
            if a.n != self.group.n or out.n != self.group.n:
                raise BadParameters("sample size does not match the group")
            if a.regime != out.regime:
                raise RegimeMismatch("sample input and output regimes differ")


@dataclass
class MapReport:
    status: str  # "LocallyConsistent" | "Obstructed" | "Inconclusive"
    pair_verdicts: list  # ((i, j), PairVerdict)
    first_obstruction: tuple | None = None

    def counts(self) -> dict:
        out = {"Interpolable": 0, "Obstructed": 0, "Inconclusive": 0}
        for _, v in self.pair_verdicts:
            out[v.status] += 1
        return out


def check_map(sample_map: SampleMap, seed: int = 0, tol: float = DEFAULT_TOL) -> MapReport:
    """Run check_pair over every unordered pair of samples (a single sample
    is paired with itself)."""
    samples = sample_map.samples
    group = sample_map.group
    if not samples:
        raise BadParameters("an empty sample map has nothing to check")
    m = len(samples)
    idx_pairs = [(0, 0)] if m == 1 else [(i, j) for i in range(m) for j in range(i + 1, m)]
    verdicts = []
    status = "LocallyConsistent"
    first_obstruction = None
    for i, j in idx_pairs:
        sub_seed = seed * 9973 + i * m + j
        v = check_pair(group, samples[i], samples[j], seed=sub_seed, tol=tol)
        verdicts.append(((i, j), v))
        if v.status == "Obstructed" and first_obstruction is None:
            first_obstruction = (i, j)
            status = "Obstructed"
        elif v.status == "Inconclusive" and status == "LocallyConsistent":
            status = "Inconclusive"
    return MapReport(status, verdicts, first_obstruction)


def samples_from_automorphism(auto: Automorphism, mats, tol: float = DEFAULT_TOL) -> SampleMap:
    pairs = tuple((a, apply(auto, a, tol)) for a in mats)
    return SampleMap(auto.group, pairs)
