"""End-to-end acceptance checks for the whole toolkit.

Ten numbered criteria, each a self-contained function returning a
CriterionResult with a pass/fail verdict and a one-line summary. The
exact regimes are judged with exact equality; floating-point regimes get
the stated entrywise tolerances. run_all drives the lot and is what the
command line selftest prints.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .autos import CONTRAGREDIENT, SIGMA_CONJ, SIGMA_ID, STANDARD, apply, make_automorphism, op
from .exactlinalg import nullspace, rank
from .gallery import additive_r, gl_local_not_global, verify_entry
from .matrices import (
    QR,
    GroupTag,
    build_basis,
    charpoly,
    close,
    det,
    diagonal,
    equal,
    flat,
    grid,
    identity,
    inv,
    mul,
    random_gl,
    random_pool,
    random_sl,
    random_unitary,
    ratio,
    smul,
    trace,
)
from .mullattice import factor
from .recover import AutomorphismOracle, recover
from .scalarmaps import (
    CIRCLE,
    LatticeFunc,
    PowerFunc,
    check_LAR,
    check_character,
    evaluate,
    power_character,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.number:>2}  {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _result(number: int, name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 1: the homomorphism identity across every carried group form


_FORMS = (
    ("GL3R", GroupTag("GL", "R", 3)),
    ("SL3R", GroupTag("SL", "R", 3)),
    ("GL3C", GroupTag("GL", "C", 3)),
    ("SL3C", GroupTag("SL", "C", 3)),
    ("U3", GroupTag("Un", "C", 3)),
    ("SU3", GroupTag("SUn", "C", 3)),
)


def _random_auto(group: GroupTag, i: int, rng: random.Random):
    if group.unitary:
        sigma = SIGMA_ID if i % 2 == 0 else SIGMA_CONJ
        t = random_unitary(group.n, seed=rng.randrange(10**6))
        return make_automorphism(group, STANDARD, sigma, t)
    kind = STANDARD if i % 2 == 0 else CONTRAGREDIENT
    sigma = SIGMA_ID if group.field == "R" or (i // 2) % 2 == 0 else SIGMA_CONJ
    t = random_gl(group.n, group.regimes()[0], rng)
    g = None
    if group.family == "GL":
        # |t|^c on R*, |z|^(2c) on C*; None for c = 0
        c = Fraction(i % 3)
        g = power_character(c if group.field == "R" else 2 * c, False, group)
    return make_automorphism(group, kind, sigma, t, g)


def _hom_check(auto, pool, pair_idx, products) -> int:
    """Number of pairs where apply(phi, ab) != apply(phi, a) apply(phi, b),
    exactly or within 1e-8 in C64."""
    imgs = [apply(auto, m, check=False) for m in pool]
    bad = 0
    for k, (ia, ib) in enumerate(pair_idx):
        lhs = apply(auto, products[k], check=False)
        if not close(lhs, mul(imgs[ia], imgs[ib]), 1e-8):
            bad += 1
    return bad


def criterion_1(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    pool_size = 24
    for fi, (label, group) in enumerate(_FORMS):
        rng = random.Random(seed * 7919 + fi)
        pool = random_pool(group, rng, pool_size)
        pair_idx = [(rng.randrange(pool_size), rng.randrange(pool_size)) for _ in range(200)]
        products = [mul(pool[ia], pool[ib]) for ia, ib in pair_idx]
        for i in range(20):
            auto = _random_auto(group, i, rng)
            bad += _hom_check(auto, pool, pair_idx, products)
            checked += 200
    # spot checks one size up, including the even-size sign flip character
    rng = random.Random(seed + 4099)
    for group, g in (
        (GroupTag("SL", "R", 4), None),
        (GroupTag("GL", "R", 4), PowerFunc(Fraction(1), "flip")),
    ):
        pool = random_pool(group, rng, 8)
        pair_idx = [(rng.randrange(8), rng.randrange(8)) for _ in range(20)]
        products = [mul(pool[ia], pool[ib]) for ia, ib in pair_idx]
        for kind in (STANDARD, CONTRAGREDIENT):
            auto = make_automorphism(group, kind, SIGMA_ID, random_gl(4, QR, rng), g)
            bad += _hom_check(auto, pool, pair_idx, products)
            checked += 20
    elapsed = time.perf_counter() - t0
    passed = bad == 0 and elapsed < 30.0
    detail = (
        f"{checked} product identities over 6 forms x 20 maps x 200 pairs plus n=4 spot checks, "
        f"{bad} failures, exact on rational regimes / 1e-8 on C64, wall-clock bound 30s"
    )
    return _result(1, "homomorphism suite", passed, detail, t0)


# ---------------------------------------------------------------------------
# criterion 2: the spectrum dichotomy on the distinguished idempotent shifts


def criterion_2(seed: int = 0) -> CriterionResult:
    """D = diag(1/4, 2, 2) conjugated by X in SL_3 is the idempotent shift
    (1/4) P + 2 (I - P) for P = X E_11 X^-1; a standard image keeps D's
    spectrum, a contragredient one inverts it."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 211)
    group = GroupTag("SL", "R", 3)
    std = [make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, rng)) for _ in range(5)]
    con = [
        make_automorphism(group, CONTRAGREDIENT, SIGMA_ID, random_gl(3, QR, rng)) for _ in range(5)
    ]
    d = diagonal([Fraction(1, 4), 2, 2], QR)
    want_std, want_con = charpoly(d), charpoly(op(d, CONTRAGREDIENT, SIGMA_ID))
    bad = 0
    for i in range(50):
        x = random_sl(3, QR, rng)
        e = mul(mul(x, d), inv(x))
        if charpoly(apply(std[i % 5], e)) != want_std:
            bad += 1
        if charpoly(apply(con[i % 5], e)) != want_con:
            bad += 1
    detail = (
        f"50 idempotent shifts: standard images have exact spectrum {{1/4, 2, 2}}, "
        f"contragredient {{4, 1/2, 1/2}}, {bad} failures"
    )
    return _result(2, "spectrum dichotomy", bad == 0, detail, t0)


# ---------------------------------------------------------------------------
# criterion 3: the two spanning bases and their trace-Gram matrices


def criterion_3(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    rng = random.Random(seed + 307)
    sl3 = GroupTag("SL", "R", 3)
    gl3 = GroupTag("GL", "R", 3)
    oracles = {
        "B": [
            make_automorphism(sl3, STANDARD, SIGMA_ID, random_gl(3, QR, rng)),
            make_automorphism(sl3, CONTRAGREDIENT, SIGMA_ID, random_gl(3, QR, rng)),
            make_automorphism(gl3, STANDARD, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(Fraction(2))),
            make_automorphism(gl3, CONTRAGREDIENT, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(Fraction(0))),
        ],
        "Bprime": [
            make_automorphism(gl3, STANDARD, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(Fraction(0))),
            make_automorphism(gl3, CONTRAGREDIENT, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(Fraction(0))),
            make_automorphism(gl3, STANDARD, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(Fraction(1))),
        ],
    }
    problems = []
    for kind in ("B", "Bprime"):
        basis = build_basis(kind, 3)
        if len(basis.mats) != 9:
            problems.append(f"{kind}: expected 9 matrices, got {len(basis.mats)}")
            continue
        want_det = Fraction(1) if kind == "B" else Fraction(-1)
        if any(det(m) != want_det for m in basis.mats):
            problems.append(f"{kind}: a member has the wrong determinant")
        gram = basis.gram()
        if det(gram) == 0:
            problems.append(f"{kind}: trace-Gram matrix is singular")
            continue
        for auto in oracles[kind]:
            # the contragredient unwrap op(phi(A), kind, id) turns the second
            # kind back into a similarity, which keeps the trace form
            imgs = [op(apply(auto, m), auto.kind, SIGMA_ID) for m in basis.mats]
            for i in range(9):
                for j in range(i, 9):
                    if trace(mul(imgs[i], imgs[j])) != gram[i, j]:
                        problems.append(f"{kind}: Gram entry ({i},{j}) moved under {auto.kind}")
                        break
                else:
                    continue
                break
    detail = (
        "both 9-element bases nonsingular, image Gram equals source Gram entry for entry "
        f"under {len(oracles['B'])}+{len(oracles['Bprime'])} oracles"
        + ("" if not problems else f"; problems: {problems[:3]}")
    )
    return _result(3, "basis certification", not problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 4: recovery round trips, exact over Q and numeric over C


def criterion_4(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    problems = []
    for i in range(20):
        rng = random.Random(seed * 1009 + i)
        kind = STANDARD if i % 2 == 0 else CONTRAGREDIENT
        t_true = random_gl(3, QR, rng)
        auto = make_automorphism(GroupTag("SL", "R", 3), kind, SIGMA_ID, t_true)
        rep = recover(AutomorphismOracle(auto), seed=i, verify_probes=100)
        if rep.status != "Recovered":
            problems.append(f"sl case {i}: {rep.status}")
            continue
        if rep.auto.kind != kind:
            problems.append(f"sl case {i}: kind {rep.auto.kind} != {kind}")
        if not ratio(flat(mul(rep.auto.t, inv(t_true))), flat(identity(3, QR))):
            problems.append(f"sl case {i}: T' T^-1 is not scalar")
        if rep.residual != 0.0:
            problems.append(f"sl case {i}: nonzero residual {rep.residual}")
    for i in range(20):
        sigma = SIGMA_ID if i % 2 == 0 else SIGMA_CONJ
        t_true = random_unitary(3, seed=seed * 503 + 7 * i + 1)
        auto = make_automorphism(GroupTag("SUn", "C", 3), STANDARD, sigma, t_true)
        rep = recover(AutomorphismOracle(auto), seed=i, verify_probes=100)
        if rep.status != "Recovered":
            problems.append(f"su case {i}: {rep.status}")
            continue
        if rep.auto.sigma != sigma:
            problems.append(f"su case {i}: sigma {rep.auto.sigma} != {sigma}")
        if rep.residual > 1e-8:
            problems.append(f"su case {i}: residual {rep.residual:.2e}")
        if ratio(flat(t_true), flat(rep.auto.t), 1e-6) is None:
            problems.append(f"su case {i}: T is not a phase times the true T within 1e-6")
    elapsed = time.perf_counter() - t0
    passed = not problems and elapsed < 60.0
    detail = (
        "20 exact SL3(R) round trips (100 fresh samples each, zero residual, scalar T' T^-1) "
        f"and 20 SU3 round trips (T within 1e-6 after phase alignment, residuals under 1e-8), "
        f"{len(problems)} problems, wall-clock bound 60s"
    )
    return _result(4, "recovery round trip", passed, detail, t0)


# ---------------------------------------------------------------------------
# criterion 5: splitting a scaled similarity into character times similarity


def _det_grid() -> list[Fraction]:
    vals = {
        s * Fraction(2) ** a * Fraction(3) ** b
        for a in range(-2, 3)
        for b in range(-2, 3)
        for s in (1, -1)
    }
    return sorted(vals)


def criterion_5(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    dets = _det_grid()
    cases = [(3, 0, "same"), (3, 1, "same"), (3, 2, "same"), (4, 0, "flip"), (4, 1, "flip"), (4, 2, "flip")]
    problems = []
    for idx, (n, c, neg) in enumerate(cases):
        rng = random.Random(seed * 131 + idx)
        g = PowerFunc(Fraction(c), neg)
        auto = make_automorphism(
            GroupTag("GL", "R", n), STANDARD, SIGMA_ID, random_gl(n, QR, rng), g
        )
        rep = recover(AutomorphismOracle(auto), seed=idx, verify_probes=20, dets=dets)
        if rep.status != "Recovered":
            problems.append(f"case {n},{c},{neg}: {rep.status}")
            continue
        table = dict(rep.f_table)
        for d in dets:
            want = evaluate(g, d) ** n * d
            if table.get(d) != want:
                problems.append(f"case {n},{c},{neg}: f({d}) = {table.get(d)} != {want}")
                break
        gtable = dict(rep.auto.g.points)
        for d in dets:
            if gtable.get(d) != evaluate(g, d):
                problems.append(f"case {n},{c},{neg}: g({d}) wrong")
                break
        screen = check_character(rep.auto.group, True, rep.auto.sigma, rep.auto.g)
        if not screen.ok:
            problems.append(f"case {n},{c},{neg}: class screen failed at {screen.counterexample}")
    detail = (
        f"6 characters recovered over {len(dets)} determinants, recovered tables match the "
        f"oracle character exactly and pass the pairwise class screen, {len(problems)} problems"
    )
    return _result(5, "character splitting", not problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 6: the separating example is certified both ways


def criterion_6(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    entry = gl_local_not_global(3, seed=seed)
    res = verify_entry(entry, seed=seed)
    counts = res.get("pair_counts") or {}
    counts_ok = counts.get("Interpolable") == 3 and not counts.get("Obstructed") and not counts.get("Inconclusive")
    passed = bool(res.get("ok")) and counts_ok and bool(res.get("relation_refutations"))
    detail = (
        f"all 3 sample pairs Interpolable, {res.get('identity')}, product pair breaks the "
        f"homomorphism law: {res.get('product_pair_fails_homomorphism')}, "
        f"{len(res.get('relation_refutations', []))} relation refutation(s)"
    )
    return _result(6, "separation certificate", passed, detail, t0)


# ---------------------------------------------------------------------------
# criterion 7: the lattice verdict agrees with brute-force pairwise checking


_IMAGE_POOL = tuple(
    Fraction(v)
    for v in (2, 3, 5, 7, 4, 9, 8, 27, 6, 10, 12)
) + (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 4), Fraction(1, 6))

_PRIMES = (2, 3, 5, 7, 11)


@lru_cache(maxsize=None)
def _prime_exps(q: Fraction) -> tuple[tuple[int, int], ...]:
    return factor(q).factors


def _class_ratio(a: Fraction, b: Fraction) -> Fraction | None:
    """q with a = b**q for positive rationals, or None; 1 relates only to 1."""
    if a == 1 or b == 1:
        return Fraction(1) if a == b else None
    ea, eb = dict(_prime_exps(a)), dict(_prime_exps(b))
    pivot = next(iter(eb))
    q = Fraction(ea.get(pivot, 0), eb[pivot])
    if q == 0:
        return None
    for p in set(ea) | set(eb):
        if Fraction(ea.get(p, 0)) != q * eb.get(p, 0):
            return None
    return q


def _word_samples(hom) -> list[tuple[Fraction, Fraction]]:
    gens = list(hom.generators)
    images = list(hom.images)
    m = len(gens)
    vecs = set(itertools.product((-1, 0, 1), repeat=m))
    # joint relations among image magnitudes only surface on words whose
    # exponent vector lies in the kernel of the image exponent matrix, so
    # those words are added explicitly
    primes = sorted({p for im in images for p, _ in _prime_exps(im)})
    rows = [[dict(_prime_exps(images[j])).get(p, 0) for j in range(m)] for p in primes]
    if rows:
        for v, _ in nullspace(rows):
            g = math.gcd(*v)
            vecs.add(tuple(x // g for x in v))
    samples: dict[Fraction, Fraction] = {}
    for v in sorted(vecs):
        x, h = Fraction(1), Fraction(1)
        for gval, im, e in zip(gens, images, v):
            x *= gval**e
            h *= im**e
        samples[x] = h
        samples[-x] = hom.sign_image * h
    return sorted(samples.items())


def _pairwise_brute(hom) -> bool:
    """Sample words from the lattice and demand that every single sample and
    every pair of samples is matched by some sign-preserving odd map with
    the power-class property. Points: signs preserved and magnitude 1 hit
    exactly on magnitude 1. Pairs: power-dependent inputs transport with the
    same exponent, power-independent inputs get power-independent images."""
    samples = _word_samples(hom)
    for x, h in samples:
        if x > 0 and h <= 0:
            return False
        if x < 0 and h >= 0:
            return False
        if (abs(x) == 1) != (abs(h) == 1):
            return False
    for (x, hx), (y, hy) in itertools.combinations(samples, 2):
        ax, ay = abs(x), abs(y)
        if ax == 1 or ay == 1:
            continue
        ahx, ahy = abs(hx), abs(hy)
        q = _class_ratio(ax, ay)
        if q is not None:
            if ahx**q.denominator != ahy**q.numerator:
                return False
        elif _class_ratio(ahx, ahy) is not None:
            return False
    return True


def _random_hom_case(rng: random.Random):
    m = rng.choice((2, 2, 2, 3))
    gens = sorted(rng.sample(_PRIMES, m))
    images: list[Fraction] = []
    for idx in range(m):
        roll = rng.random()
        if roll < 0.08:
            images.append(Fraction(1))
        elif roll < 0.16:
            images.append(-rng.choice(_IMAGE_POOL))
        elif roll < 0.32 and idx > 0:
            base = abs(images[rng.randrange(idx)])
            images.append(base ** rng.choice((1, 2, 3)))
        elif roll < 0.42 and idx == 2:
            images.append(abs(images[0] * images[1]))
        else:
            images.append(rng.choice(_IMAGE_POOL))
    sign_image = rng.choice((-1, -1, -1, 1))
    return LatticeFunc(gens, images, sign_image)


def criterion_7(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    disagreements = []
    accepted = 0
    for i in range(100):
        rng = random.Random(seed * 100003 + i)
        hom = _random_hom_case(rng)
        fast = check_LAR(hom).ok
        slow = _pairwise_brute(hom)
        if fast:
            accepted += 1
        if fast != slow:
            disagreements.append((i, fast, slow))
    detail = (
        f"100 random lattice maps, {accepted} accepted, verdicts from the generator test and "
        f"from brute-force word sampling disagree {len(disagreements)} times"
    )
    return _result(7, "lattice vs brute force", not disagreements, detail, t0)


# ---------------------------------------------------------------------------
# criterion 8: circle powers and the bijectivity of the induced torus map


def criterion_8(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    bad = []
    for n in (3, 4, 5):
        for k in range(-5, 6):
            ok = check_character(GroupTag("Un", "C", n), True, SIGMA_ID, PowerFunc(Fraction(k), "same", CIRCLE)).ok
            if ok != (k == 0):
                bad.append((n, k, ok))
    detail = (
        "z -> z^k accepted exactly when k = 0 for n in {3, 4, 5}, k in [-5, 5], "
        f"{len(bad)} wrong verdicts"
    )
    return _result(8, "circle power screen", not bad, detail, t0)


# ---------------------------------------------------------------------------
# criterion 9: the additive example separates and its trivial twin does not


def criterion_9(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    problems = []
    bent = additive_r(2)
    res = verify_entry(bent, seed=seed)
    if not res.get("ok") or bent.certificate.claim != "IsLocalNotGlobal":
        problems.append(f"scaled entry: ok={res.get('ok')} claim={bent.certificate.claim}")
    if not res.get("violations"):
        problems.append("scaled entry: no additivity violation recorded")
    unit = additive_r(2, scales=[Fraction(1)] * 3)
    res2 = verify_entry(unit, seed=seed)
    if not res2.get("ok") or unit.certificate.claim != "IsAutomorphism":
        problems.append(f"unit entry: ok={res2.get('ok')} claim={unit.certificate.claim}")
    if res2.get("violations"):
        problems.append("unit entry: unexpected violation")
    detail = (
        "line-scaled map passes every pair yet breaks additivity on a generator sum; "
        f"the all-ones scaling is a global automorphism, {len(problems)} problems"
    )
    return _result(9, "additive separation", not problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 10: the small detection lemmas hold under random fire


def _random_vec(rng: random.Random, n: int) -> list[Fraction]:
    while True:
        v = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(n)]
        if any(v):
            return v


def criterion_10(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    problems = []
    scalars = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-3, 2), Fraction(5))
    for i in range(500):
        rng = random.Random(seed * 733 + i)
        a = random_sl(3, QR, rng)
        if i % 2 == 0:
            b = smul(rng.choice(scalars), a)
        else:
            b = random_sl(3, QR, rng)
        truth = rank([list(grid(a)[1]), list(grid(b)[1])]) == 1
        c = ratio(flat(a), flat(b))
        if (c is not None) != truth:
            problems.append(f"dependence {i}: ratio {c}, exact rank says {truth}")
        elif c is not None and not equal(a, smul(c, b)):
            problems.append(f"dependence {i}: ratio does not reproduce A")
    for i in range(100):
        rng = random.Random(seed * 743 + i)
        n = 3 + (i % 3)
        phi1 = _random_vec(rng, n)
        cval = Fraction(0)
        while cval == 0:
            cval = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        phi2 = [cval * v for v in phi1]
        c = ratio(phi2, phi1)
        if c != cval:
            problems.append(f"functional {i}: ratio {c} != {cval}")
    if ratio((Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(1))) is not None:
        problems.append("functional mismatch was not rejected")
    detail = (
        "500 dependence verdicts match exact rank, "
        f"100 proportional functionals reproduce their constant, {len(problems)} problems"
    )
    return _result(10, "lemma suite", not problems, detail, t0)


# ---------------------------------------------------------------------------
# the driver


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(seed: int = 0, numbers=None) -> list[CriterionResult]:
    picked = CRITERIA if numbers is None else [CRITERIA[k - 1] for k in numbers]
    return [fn(seed) for fn in picked]
