"""Interpolation tests for sampled maps on classical groups.

fit_map decides whether one automorphism in canonical form passes through
any number of input/output samples at once, and recovery fits with it;
check_pair is fit_map on two member samples, and check_map runs it on
every unordered pair of a sampled map. Over the rationals the verdicts are
certificates: a witness automorphism on the positive side, an exhaustive
branch refutation on the negative side. Interpolation branches are indexed
by kind and sigma, and read each sample's spectra, the characteristic
polynomials of A and out, off the memo of its Mat. In a GL branch each
sample A -> out fixes its scalar c = g(det A): out = c T op(A) T^-1
gives c = tr(out) / tr(op(A)), exact, and the branch is refuted unless
c^n = det(out) / det(op(A)). A sample with tr(op(A)) = 0 gives c^g for
some g dividing n through a lower coefficient; only then are roots taken,
exact in Q(i) for every g, and a root outside the ground field leaves the
branch inconclusive. Numeric (C64) samples take the n-th roots of the
determinant ratio and certify nothing.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product

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
    charpoly,
    charpolys_match,
    close,
    det,
    member,
    scalar_one,
    smul,
    to_c64,
)
from .scalarmaps import ambient, character_point, pair_screen, table_screen, witness_character
from .scalars import (
    GQ_I,
    GQ_ONE,
    RECHECK_TOL,
    GaussRational,
    complex_nth_roots,
    gauss_root,
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

    def refusal_reasons(self) -> list[str]:
        return [f"{b.kind}/{b.sigma}: {b.detail}" for b in self.branches if b.outcome == "refuted"]


def _group_branches(group: GroupTag) -> tuple[list[str], list[str]]:
    kinds = [STANDARD] if group.unitary else [STANDARD, CONTRAGREDIENT]
    sigmas = [SIGMA_ID] if group.field == "R" else [SIGMA_ID, SIGMA_CONJ]
    return kinds, sigmas


# ---------------------------------------------------------------------------
# the scalar of each sample


def _trace_scalars(px: list, py: list, ratio, n: int, d) -> tuple[list, bool, str]:
    """The ground-field values c = g(d) with y = c S x S^-1 for some S, as
    far as traces and determinants decide them, read off px = det(tI - x)
    and py = det(tI - y): (candidates, exhaustive, why none).

    Such a c satisfies c^n = det y / det x = ratio and tr(y^k) = c^k tr(x^k)
    for every k. When tr x != 0 that is one exact candidate, refuted unless
    c^n = ratio. When tr x = 0, some p_k = tr(x^k) with k <= n is nonzero,
    as x is invertible (Newton's identities): c^k = tr(y^k) / p_k and
    c^n = ratio fix c^g for g = gcd(k, n), and c is one of its g-th roots.
    While its lower coefficients are 0, p_k = -k px[n-k] by the same rule.
    Such a root may lie outside the ground field, with S outside it too, so
    the list is exhaustive only when it holds every root in R or C. Over R
    an odd g with w = c^g < 0 leaves one real root, which is negative; it
    is refuted when g(d) must be positive, as it must be at d > 0 (a square)
    and everywhere for odd n (g(-1) = -1 would give f(-1) = f(1)).
    """
    k = next(k for k in range(1, n + 1) if px[n - k])
    for j in range(1, k):
        if py[n - j]:
            return [], True, f"tr(out^{j}) = {type(py[n])(-j) * py[n - j]} but tr(op(A)^{j}) = 0"
    ck = py[n - k] / px[n - k]
    if k == 1:
        if ck**n != ratio:
            return [], True, f"trace scalar {ck}: c^{n} = {ck**n} != det ratio {ratio}"
        return [ck], True, ""
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
    """The Gaussian rational solutions of c^g = w, possibly none.

    One root c0 (`gauss_root`, exact for every g) gives all of them, as the
    roots of unity in Q(i) are the fourth roots: c0 u for u^4 = u^g = 1,
    the principal root c0 first when g | 4.
    """
    c0 = gauss_root(w, g)
    return [] if c0 is None else [c0 * u for u in (GQ_ONE, GQ_I, -GQ_ONE, -GQ_I) if u**g == GQ_ONE]


def _op_charpoly(p: list, kind: str, sigma: str) -> list:
    """det(tI - op(A)) from p = det(tI - A): sigma = conj conjugates p, and
    the contragredient kind takes det(tI - A^-1) = t^n p(1/t) / p(0)."""
    if sigma == SIGMA_CONJ:
        p = [x.conjugate() for x in p]
    if kind == CONTRAGREDIENT:
        p = [x / p[0] for x in reversed(p)]
    return p


def _scaled_charpoly(p: list, c) -> list:
    """det(tI - out / c) from p = det(tI - out): c^(k-n) p[k] at t^k."""
    return [x * c ** (k - len(p) + 1) for k, x in enumerate(p)]


def _numeric_scalars(ratio: complex, n: int) -> tuple[list, bool, str]:
    """The numeric n-th roots of the determinant ratio: never a certificate."""
    z = complex(ratio)
    if not cmath.isfinite(z):
        return [], False, "numeric ratio outside the float range"
    return complex_nth_roots(z, n), False, ""


# ---------------------------------------------------------------------------
# the fit through samples


def check_pair(
    group: GroupTag,
    pair1: tuple[Mat, Mat],
    pair2: tuple[Mat, Mat],
    seed: int = 0,
) -> PairVerdict:
    """Is there one canonical-form automorphism through both samples?

    Each sample's membership is tested within DEFAULT_TOL in C64, and
    `fit_map` answers on the two samples."""
    samples = (*pair1, *pair2)
    for x in samples:
        if not member(x, group):
            raise NotInGroup(f"sample outside {group.family}_{group.n}({group.field})")
    if group.unitary and samples[0].regime == QC:
        # unitary witnesses need polar factors, which live in ApproxC; U_n
        # reads its determinants off the lifted samples
        samples = tuple(to_c64(x) for x in samples)
    a, a_out, b, b_out = samples
    return fit_map(group, [(a, a_out), (b, b_out)], seed)


def fit_map(group: GroupTag, pairs, seed: int = 0) -> PairVerdict:
    """Is there one canonical-form automorphism through every sample
    (A, out) of pairs? The samples are taken to be members of group.

    Each branch (kind, sigma) reads the scalar c_i = g(det A_i) of every
    sample, screens each tuple of candidates against the class of the
    branch, and solves one intertwiner of all the pairs (op(A_i), out_i /
    c_i) whose spectra, read off charpoly(A_i) and charpoly(out_i), agree.
    Each branch calls det and charpoly itself; their values live only in
    the memo of each Mat. A branch fits its witness in floats and checks it
    against the samples within RECHECK_TOL; in the exact regimes both
    compare exactly. The first witness is the verdict; a refusal in C64 is
    not a certificate, so there every refusal reads Inconclusive."""
    if not pairs:
        raise BadParameters("a fit needs at least one sample")
    kinds, sigmas = _group_branches(group)
    verdict = PairVerdict("Obstructed", None)
    inconclusive = False
    for kind in kinds:
        for sigma in sigmas:
            br = _try_branch(group, kind, sigma, pairs, seed)
            verdict.branches.append(br)
            if br.outcome == "witness":
                verdict.status = "Interpolable"
                verdict.witness = br.witness
                return verdict
            if br.outcome == "inconclusive":
                inconclusive = True
    if inconclusive or pairs[0][0].regime == C64:
        # numeric refusals are not certificates
        verdict.status = "Inconclusive"
    return verdict


def _try_branch(group, kind, sigma, pairs, seed) -> BranchReport:
    polys = [_op_charpoly(charpoly(a), kind, sigma) for a, _ in pairs]

    def fit(cs, points) -> BranchReport:
        """The fit of every (op(A), out / c), with c = 1 when cs is None."""
        cs = cs or [None] * len(pairs)
        scaled = [charpoly(out) if c is None else _scaled_charpoly(charpoly(out), c) for (_, out), c in zip(pairs, cs)]
        if any(not charpolys_match(x, y) for x, y in zip(polys, scaled)):
            return BranchReport(kind, sigma, "refuted", "characteristic polynomials differ")
        ops = [op(a, kind, sigma) for a, _ in pairs]
        outs = [out if c is None else smul(scalar_one(out.regime) / c, out) for (_, out), c in zip(pairs, cs)]
        return _similarity_step(group, kind, sigma, list(zip(ops, outs)), points, pairs, seed)

    if ambient(group) is None:
        return fit(None, None)
    # det op(A) = sigma(det A)^(+-1)
    eps = -1 if kind == CONTRAGREDIENT else 1
    n = group.n
    found, points = [], []
    for (a, out), x in zip(pairs, polys):
        d = det(a)
        d_op = (d.conjugate() if sigma == SIGMA_CONJ else d) ** eps
        points.append(character_point(group, sigma, d))
        if a.regime == C64:
            found.append(_numeric_scalars(det(out) / d_op, n))
        else:
            found.append(_trace_scalars(x, charpoly(out), det(out) / d_op, n, points[-1]))
    empty = [(exhaustive, why) for cands, exhaustive, why in found if not cands]
    if empty:
        # one sample with no value at all refutes the branch, if its list is complete
        refuted = any(exhaustive for exhaustive, _ in empty)
        why = next(why for exhaustive, why in empty if exhaustive == refuted)
        return BranchReport(kind, sigma, "refuted" if refuted else "inconclusive", f"no scalar values ({why})")
    pending_inconclusive = None
    refusals = []
    for cs in product(*(cands for cands, _, _ in found)):
        table = list(zip(points, cs))
        ok, why = _screen(group, kind == STANDARD, sigma, table)
        if not ok:
            refusals.append(", ".join(f"g({d})={c}" for d, c in table) + f": {why}")
            continue
        br = fit(cs, table)
        if br.outcome == "witness":
            return br
        if br.outcome == "inconclusive":
            pending_inconclusive = br
        else:
            refusals.append(f"scalars ({', '.join(map(str, cs))}): {br.detail}")
    if pending_inconclusive is not None:
        return pending_inconclusive
    if not all(exhaustive for _, exhaustive, _ in found):
        return BranchReport(kind, sigma, "inconclusive", "scalar candidates may be incomplete")
    return BranchReport(kind, sigma, "refuted", "; ".join(refusals))


def _screen(group, first_kind: bool, sigma: str, table) -> tuple[bool, str]:
    """(ok, why) for the scalar table [(d, c), ...] of one branch: by
    `pair_screen` on two points, which names two values at one det before
    either point's own failure, and by `table_screen` on any other number."""
    if len(table) == 2:
        return pair_screen(group, first_kind, sigma, *table)
    res = table_screen(group, first_kind, sigma, table)
    return res.ok, res.reason


def _similarity_step(group, kind, sigma, pairs, points, originals, seed) -> BranchReport:
    if group.unitary:
        u = unitary_intertwiner(pairs, seed=seed)
        if u is None:
            return BranchReport(kind, sigma, "inconclusive", "no unitary intertwiner found")
        return _witness_report(group, kind, sigma, u, points, originals, "unitary intertwiner")
    res = simultaneous_similarity(pairs, seed=seed)
    if res.status == "Solved":
        return _witness_report(group, kind, sigma, res.s, points, originals, f"intertwiner space dim {res.dim}")
    if res.status == "NoSolution":
        return BranchReport(kind, sigma, "refuted", res.note)
    return BranchReport(kind, sigma, "inconclusive", res.note)


def _witness_report(group, kind, sigma, t, points, originals, detail) -> BranchReport:
    try:
        witness = make_automorphism(group, kind, sigma, t)
    except Exception as exc:
        return BranchReport(kind, sigma, "inconclusive", f"witness rejected: {exc}")
    if points is not None:
        # the screen passed the points, so g joins the witness without a
        # second screen
        witness = replace(witness, g=witness_character(group, points))
    for a, a_out in originals:
        if not close(apply(witness, a, check=False), a_out, RECHECK_TOL):
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


def check_map(sample_map: SampleMap, seed: int = 0) -> MapReport:
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
        v = check_pair(group, samples[i], samples[j], seed=sub_seed)
        verdicts.append(((i, j), v))
        if v.status == "Obstructed" and first_obstruction is None:
            first_obstruction = (i, j)
            status = "Obstructed"
        elif v.status == "Inconclusive" and status == "LocallyConsistent":
            status = "Inconclusive"
    return MapReport(status, verdicts, first_obstruction)


def samples_from_automorphism(auto: Automorphism, mats) -> SampleMap:
    pairs = tuple((a, apply(auto, a)) for a in mats)
    return SampleMap(auto.group, pairs)
