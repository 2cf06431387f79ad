"""Recovery: the one pipeline behind every engine name, its certificates
(round trips, refutations, budgets) and the oracles it probes."""
import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localaut.autos import (
    CONTRAGREDIENT,
    SIGMA_CONJ,
    SIGMA_ID,
    STANDARD,
    apply,
    make_automorphism,
    op,
)
from localaut import matrices
from localaut.errors import BadParameters, BudgetExceeded, NoEngine, NotInGroup, OracleIncomplete
from localaut.matrices import (
    C64,
    build_basis,
    close,
    coerce_scalar,
    det,
    diag_first,
    GroupTag,
    QC,
    QR,
    equal,
    flat,
    identity,
    inv,
    mat,
    mul,
    random_gl,
    random_sl,
    random_su,
    random_unitary,
    ratio,
    smul,
    transpose,
)
from localaut.recover import (
    AutomorphismOracle,
    FunctionOracle,
    SampleOracle,
    _exact_probe,
    _verify_exact,
    _verify_su,
    recover,
    recover_glnr,
    recover_slnr_short,
    recover_sln_common,
    recover_sun,
    recover_un,
)
from localaut.scalarmaps import PowerFunc, det_relation_refutations, evaluate
from localaut.similarity import intertwiner_basis

F = Fraction


def _scalar_ratio_ok(t_rec, t_true):
    r = mul(t_rec, inv(t_true))
    return bool(ratio(flat(r), flat(identity(r.n, r.regime))))


def test_sl_real_round_trip_both_kinds():
    """`recover_slnr_short` is `recover` on SL_n(R): the shear fit certifies
    T at odd and even n alike."""
    for n in (3, 4):
        for i, kind in enumerate((STANDARD, CONTRAGREDIENT)):
            rng = random.Random(40 + i + 10 * (n - 3))
            t = random_gl(n, QR, rng)
            auto = make_automorphism(GroupTag("SL", "R", n), kind, SIGMA_ID, t)
            rep = recover_slnr_short(AutomorphismOracle(auto), seed=i, verify_probes=25)
            assert rep.status == "Recovered"
            assert rep.auto.kind == kind
            assert _scalar_ratio_ok(rep.auto.t, t)
            assert rep.residual == 0.0


def test_sl_complex_round_trip_with_conjugation():
    rng = random.Random(8)
    t = random_gl(3, QC, rng)
    auto = make_automorphism(GroupTag("SL", "C", 3), CONTRAGREDIENT, SIGMA_CONJ, t)
    rep = recover_sln_common(AutomorphismOracle(auto), seed=0, verify_probes=20)
    assert rep.status == "Recovered"
    assert rep.auto.kind == CONTRAGREDIENT and rep.auto.sigma == SIGMA_CONJ
    for k in range(5):
        a = random_sl(3, QC, random.Random(100 + k))
        assert close(apply(rep.auto, a), apply(auto, a))


def test_gl_real_splits_character():
    rng = random.Random(9)
    g = PowerFunc(F(2))
    auto = make_automorphism(
        GroupTag("GL", "R", 3), STANDARD, SIGMA_ID, random_gl(3, QR, rng), g
    )
    dets = [F(2), F(3), F(-2), F(1, 2), F(6)]
    rep = recover_glnr(AutomorphismOracle(auto), dets=dets, seed=0, verify_probes=10)
    assert rep.status == "Recovered"
    table = dict(rep.f_table)
    for d in dets:
        assert table[d] == evaluate(g, d) ** 3 * d
    gtable = dict(rep.auto.g.points)
    assert gtable[F(2)] == 4 and gtable[F(-2)] == 4


def test_gl_real_refutes_a_non_multiplicative_character():
    """A -> h(det A) T A T^-1 with h(2) h(3) != h(6): every pair of probed
    dets passes the class screen, only the relation 2 * 3 = 6 exposes it."""
    group = GroupTag("GL", "R", 3)
    t = random_gl(3, QR, random.Random(9))
    conj = make_automorphism(group, STANDARD, SIGMA_ID, t)
    h = {F(2): F(2), F(3): F(9), F(6): F(6)}
    oracle = FunctionOracle(group, lambda a: smul(h.get(det(a), F(1)), apply(conj, a)))
    rep = recover_glnr(oracle, dets=[F(2), F(3), F(6)], seed=0, verify_probes=10)
    assert rep.status == "Refuted" and rep.auto is None
    assert rep.refutation["relation"] == {"2": -1, "3": -1, "6": 1}
    assert rep.refutation["image_product"] == "1/3"


def test_gl_real_refutes_a_character_whose_f_is_not_injective():
    """A -> h(det A) T A T^-1 with h(2/5) = 2/3, h(5/3) = 5/2, h(30) = 3/10:
    the dets are independent and every pair passes the class screen, but
    f(2/5)^14 f(5/3)^10 f(30)^13 = 1, so f is not injective."""
    group = GroupTag("GL", "R", 3)
    conj = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(9)))
    h = {F(2, 5): F(2, 3), F(5, 3): F(5, 2), F(30): F(3, 10)}
    oracle = FunctionOracle(group, lambda a: smul(h.get(det(a), F(1)), apply(conj, a)))
    rep = recover(oracle, seed=1, dets=list(h))
    assert rep.status == "Refuted" and rep.auto is None
    assert rep.refutation == {
        "reason": "scalar class violated: f is not injective on the dets",
        "relation": {"2/5": 14, "5/3": 10, "30": 13},
        "det_product": str(F(2, 5) ** 14 * F(5, 3) ** 10 * 30**13),
    }


@pytest.mark.parametrize(
    "h",
    [
        {F(2): F(1), F(3): F(-1)},
        # the pair (2, 4) breaks transport, but det 3 fails on its own first
        {F(2): F(1), F(4): F(2), F(3): F(-1)},
    ],
)
def test_gl_real_screens_every_det_before_any_pair(h):
    group = GroupTag("GL", "R", 3)
    conj = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(9)))
    oracle = FunctionOracle(group, lambda a: smul(h.get(det(a), F(1)), apply(conj, a)))
    rep = recover_glnr(oracle, dets=list(h), seed=0, verify_probes=10)
    assert rep.status == "Refuted"
    assert rep.refutation == {"reason": "scalar class violated at det 3: g(3) must be positive"}


def test_gl_real_needs_a_determinant_probe():
    """With no dets every verification probe has det 1, so g would go
    unchecked: the g stage refuses to run."""
    group = GroupTag("GL", "R", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(9)), PowerFunc(F(1)))
    for call in (lambda o: recover_glnr(o, dets=[]), lambda o: recover(o, dets=[])):
        with pytest.raises(BadParameters, match="at least one determinant probe"):
            call(AutomorphismOracle(auto))


def test_gl_real_probes_each_determinant_once():
    """A repeated det would put a second, unchecked value into the table."""
    group = GroupTag("GL", "R", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(9)), PowerFunc(F(1)))
    for dets in ([F(2), F(2)], [F(2), F(3), F(4, 2)]):
        with pytest.raises(BadParameters, match="each determinant is probed once"):
            recover(AutomorphismOracle(auto), dets=dets)


@pytest.mark.parametrize(
    "dets, why",
    [
        ([F(2), F(0)], "0 is not a determinant"),
        ([F(0), F(2)], "0 is not a determinant"),
        ([F(2), F(2)], "each determinant is probed once"),
        ([], "at least one determinant probe"),
    ],
)
@pytest.mark.parametrize("budget", [None, 5])
def test_gl_real_dets_are_refused_before_the_first_probe(dets, why, budget):
    """The dets are checked with the other arguments, so a bad list spends
    no probe and is not mistaken for an exhausted budget."""
    group = GroupTag("GL", "R", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(9)), PowerFunc(F(1)))
    oracle = AutomorphismOracle(auto, budget=budget)
    with pytest.raises(BadParameters, match=why):
        recover(oracle, dets=dets)
    assert oracle.count == 0


def _shear(n, regime, i, j, value=1):
    return mat([[F(int(r == c)) + (value if (r, c) == (i, j) else 0) for c in range(n)] for r in range(n)], regime)


def _fit_pairs(auto, probes):
    """(op(probe), image) for every probe: the pairs the T fit solves."""
    return [(op(probe, auto.kind, auto.sigma), apply(auto, probe)) for probe in probes]


def _shears(n, regime):
    return [_shear(n, regime, i, j) for i in range(n) for j in range(n) if i != j]


@st.composite
def _shear_cases(draw):
    regime = draw(st.sampled_from((QR, QC)))
    sigma = draw(st.sampled_from((SIGMA_ID, SIGMA_CONJ))) if regime == QC else SIGMA_ID
    kind = draw(st.sampled_from((STANDARD, CONTRAGREDIENT)))
    n = draw(st.integers(3, 5))
    return regime, n, kind, sigma, draw(st.integers(0, 10**6))


@settings(max_examples=20, deadline=None)
@given(_shear_cases())
def test_shear_intertwiners_of_an_automorphism_are_one_line(case):
    """The shears, like the basis B, generate M_n, so an automorphism's
    shear pairs and its basis pairs have a one-dimensional intertwiner
    space, spanned by T, and the fit reads T off it."""
    regime, n, kind, sigma, seed = case
    t = random_gl(n, regime, random.Random(seed))
    group = GroupTag("SL", "R" if regime == QR else "C", n)
    auto = make_automorphism(group, kind, sigma, t)
    basis = intertwiner_basis(_fit_pairs(auto, _shears(n, regime)))
    assert len(basis) == 1 and _scalar_ratio_ok(basis[0], t)
    if regime == QR:
        assert len(intertwiner_basis(_fit_pairs(auto, build_basis("B", n).mats))) == 1
    rep = recover_sln_common(AutomorphismOracle(auto), seed=0, verify_probes=2)
    assert rep.status == "Recovered"
    assert (rep.auto.kind, rep.auto.sigma) == (kind, sigma)
    assert _scalar_ratio_ok(rep.auto.t, t)


def test_incoherent_shear_scaling_is_refuted():
    """I + E_ij -> I + d_i E_ij with d = (2, 1, 1): each shear image is a
    shear, but no single similarity moves them all."""
    group, d = GroupTag("SL", "R", 3), (2, 1, 1)
    shears = {(i, j): _shear(3, QR, i, j) for i in range(3) for j in range(3) if i != j}

    def fn(a):
        hit = next((ij for ij, s in shears.items() if equal(a, s)), None)
        return a if hit is None else _shear(3, QR, *hit, value=d[hit[0]])

    pairs = [(s, fn(s)) for s in shears.values()]
    assert intertwiner_basis(pairs) == []
    rep = recover_sln_common(FunctionOracle(group, fn), seed=0, verify_probes=5)
    assert rep.status == "Refuted"
    assert rep.refutation == {"reason": "shear images admit no similarity: intertwiner space is zero"}


@pytest.mark.parametrize(
    "engine, spec",
    [(recover_sln_common, ("SL", "C", 3)), (recover_glnr, ("GL", "R", 3)), (recover_slnr_short, ("SL", "R", 3))],
)
def test_transpose_is_refuted_at_the_shear_fit(engine, spec):
    rep = engine(FunctionOracle(GroupTag(*spec), transpose), seed=0, verify_probes=5)
    assert rep.status == "Refuted"
    assert rep.refutation == {"reason": "shear images admit no similarity: intertwiner space is zero"}


def test_verification_needs_a_fresh_probe():
    """An oracle that answers like an automorphism for the 7 probes of the
    kind and T fits, then by transpose: a recovery with no verification
    probe would certify it, one probe refutes it."""
    group = GroupTag("SL", "R", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(1)))

    def switching():
        calls = []

        def fn(a):
            calls.append(a)
            return apply(auto, a) if len(calls) <= 7 else transpose(a)

        return FunctionOracle(group, fn)

    with pytest.raises(BadParameters, match="at least 1 verification probe"):
        recover(switching(), verify_probes=0)
    rep = recover(switching(), verify_probes=1)
    assert (rep.status, rep.probes_used) == ("Refuted", 8)


def test_switching_automorphism_is_refuted_at_the_basis_fit():
    """An oracle that answers with one automorphism for 3 probes, then with
    another: the shear images admit no similarity."""
    group = GroupTag("SL", "R", 3)
    first, then = (
        make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(s))) for s in (1, 2)
    )
    calls = []

    def fn(a):
        calls.append(a)
        return apply(first if len(calls) <= 3 else then, a)

    rep = recover_slnr_short(FunctionOracle(group, fn), seed=0, verify_probes=5)
    assert rep.status == "Refuted"
    assert rep.refutation == {"reason": "shear images admit no similarity: intertwiner space is zero"}


@pytest.mark.parametrize(
    "spec, what",
    [
        (("SL", "R", 3), "kind"),
        (("SL", "C", 3), "kind"),
        (("GL", "R", 3), "kind"),
        (("SUn", "C", 3), "sigma"),
        (("Un", "C", 3), "sigma"),
    ],
)
def test_constant_identity_oracle_is_refuted_at_the_spectrum_probe(spec, what):
    """A -> I gives the spectrum probe the spectrum {1, 1, 1}, which no
    branch gives it. The probe is diag((1/2)^(n-1), 2, ..., 2) for the kind
    and diag(alpha, beta, ..., beta), beta = exp(2 pi i / 7),
    alpha = beta^(1-n), for sigma."""
    group = GroupTag(*spec)
    oracle = FunctionOracle(group, lambda a: identity(a.n, a.regime))
    rep = recover(oracle, seed=0, verify_probes=5)
    assert rep.status == "Refuted"
    assert rep.refutation == {"reason": f"spectrum probe matches neither {what}"}
    assert rep.probes_used == 1
    if what == "kind":
        entries = [F(1, 4), F(2), F(2)]
    else:
        beta = cmath.exp(2j * cmath.pi / 7)
        entries = [beta ** (1 - 3), beta, beta]
    regime = group.regimes()[0] if what == "kind" else C64
    want = mat([[x if i == j else 0 for j in range(3)] for i, x in enumerate(entries)], regime)
    assert close(oracle.transcript[0][0], want, 0.0)


def test_su_round_trip_detects_conjugation():
    t = random_unitary(3, seed=21)
    auto = make_automorphism(GroupTag("SUn", "C", 3), STANDARD, SIGMA_CONJ, t)
    rep = recover_sun(AutomorphismOracle(auto), seed=0, verify_probes=30)
    assert rep.status == "Recovered"
    assert rep.auto.sigma == SIGMA_CONJ
    assert rep.residual < 1e-8


def test_un_round_trip():
    t = random_unitary(3, seed=22)
    auto = make_automorphism(GroupTag("Un", "C", 3), STANDARD, SIGMA_ID, t)
    rep = recover_un(AutomorphismOracle(auto), seed=0, verify_probes=20)
    assert rep.status == "Recovered"
    assert rep.residual < 1e-8


def test_un_residual_is_measured():
    t = random_unitary(3, seed=22)
    auto = make_automorphism(GroupTag("Un", "C", 3), STANDARD, SIGMA_ID, t)

    def nudged(a):
        rows = apply(auto, a).rows()
        rows[0][1] += 1e-10
        return mat(rows, C64)

    oracle = FunctionOracle(auto.group, nudged)
    rep = recover_un(oracle, seed=0, verify_probes=20)
    assert rep.status == "Recovered"
    assert 0 < rep.residual < 1e-6


def test_recover_picks_the_engine_for_the_group():
    auto = make_automorphism(GroupTag("SL", "R", 4), STANDARD, SIGMA_ID, random_gl(4, QR, random.Random(6)))
    rep = recover(AutomorphismOracle(auto), seed=1, verify_probes=5)
    assert (rep.status, rep.engine) == ("Recovered", "sln_common")
    auto = make_automorphism(GroupTag("GL", "C", 3), STANDARD, SIGMA_ID, identity(3, QC))
    with pytest.raises(NoEngine):
        recover(AutomorphismOracle(auto))


def test_budget_is_enforced():
    auto = make_automorphism(GroupTag("SL", "R", 3), STANDARD, SIGMA_ID, identity(3, QR))
    with pytest.raises(BudgetExceeded):
        recover_slnr_short(AutomorphismOracle(auto, budget=3), seed=0)


def test_probe_outside_the_group_is_refused_before_the_map_runs():
    calls = []
    oracle = FunctionOracle(GroupTag("SL", "R", 3), lambda a: calls.append(a) or a)
    with pytest.raises(BadParameters, match="probe outside the group"):
        oracle.query(smul(F(2), identity(3, QR)))
    assert (calls, oracle.count, oracle.transcript) == ([], 0, [])


def test_output_outside_the_group_is_refused():
    oracle = FunctionOracle(GroupTag("SL", "R", 3), lambda a: smul(F(2), a))
    with pytest.raises(NotInGroup, match="left the group"):
        oracle.query(random_sl(3, QR, random.Random(1)))
    assert oracle.transcript == []


@pytest.fixture
def membership_tests(monkeypatch):
    """Every matrix whose membership is decided, in order."""
    seen = []
    decide = matrices.member_det

    def counted(a, *args):
        seen.append(a)
        return decide(a, *args)

    monkeypatch.setattr(matrices, "member_det", counted)
    return seen


def _once_each(seen, transcript):
    """Each probe and each output of transcript was tested exactly once."""
    assert len(seen) == 2 * len(transcript)
    for probe, out in transcript:
        assert sum(a is probe for a in seen) == 1
        assert sum(a is out for a in seen) == 1


@pytest.mark.parametrize("spec", [("SL", "R", 4), ("GL", "R", 3), ("SL", "C", 3)])
def test_each_exact_probe_is_tested_for_membership_once(spec, membership_tests):
    group = GroupTag(*spec)
    g = PowerFunc(F(1)) if group.family == "GL" else None
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(group.n, group.regimes()[0], random.Random(3)), g)
    oracle = AutomorphismOracle(auto)
    oracle.query(random_sl(group.n, group.regimes()[0], random.Random(4)))
    _once_each(membership_tests, oracle.transcript)
    _verify_exact(oracle, auto, seed=1, count=6, dets=[F(2), F(-3)])
    assert oracle.count == 7
    _once_each(membership_tests, oracle.transcript)


def test_each_su_probe_is_tested_for_membership_once(membership_tests):
    auto = make_automorphism(GroupTag("SUn", "C", 3), STANDARD, SIGMA_CONJ, random_su(3, seed=2))
    oracle = AutomorphismOracle(auto)
    assert _verify_su(oracle, auto, seed=1, count=4, tol=1e-6) < 1e-9
    assert oracle.count == 4
    _once_each(membership_tests, oracle.transcript)


def test_sample_oracle_reports_missing_probe():
    auto = make_automorphism(GroupTag("SL", "R", 3), STANDARD, SIGMA_ID, identity(3, QR))
    a = random_sl(3, QR, random.Random(1))
    oracle = SampleOracle(auto.group, ((a, apply(auto, a)),))
    with pytest.raises(OracleIncomplete) as exc:
        recover_slnr_short(oracle, seed=0)
    assert hasattr(exc.value, "missing_probe")


def test_lindep_detector_both_verdicts():
    # the matrix proportionality the pipeline reads T off with: ratio over flat
    rng = random.Random(3)
    for regime in (QR, QC):
        a = random_sl(3, regime, rng)
        c = ratio(flat(a), flat(smul(F(3, 5), a)))
        assert c is not None
        assert equal(a, smul(c, smul(F(3, 5), a)))
        assert ratio(flat(smul(F(3, 5), a)), flat(a)) == coerce_scalar(regime, F(3, 5))
        assert ratio(flat(a), flat(random_sl(3, regime, rng))) is None


def test_functional_ratio():
    phi1 = (F(2), F(0), F(-1))
    phi2 = (F(3), F(0), F(-3, 2))
    assert ratio(phi2, phi1) == F(3, 2)
    assert ratio((F(1), F(0)), (F(0), F(1))) is None
    with pytest.raises(BadParameters):
        ratio((F(1),), (F(1), F(2)))


def test_det_relation_refutations_frozen():
    table = {F(2): F(16), F(3): F(2187), F(6): F(1296)}
    refs = det_relation_refutations(table)
    assert refs == [{"relation": {"2": -1, "3": -1, "6": 1}, "image_product": "1/27"}]
    consistent = {d: evaluate(PowerFunc(F(1)), d) ** 3 * d for d in (F(2), F(3), F(6))}
    assert det_relation_refutations(consistent) == []


@pytest.mark.parametrize("n", range(3, 8))
def test_gl_verification_probe_is_the_product_with_diag_first(n):
    """The grid-scaled GL_n(R) probe is the Mat that multiplying by
    diag(d, 1, ..., 1) gives, entry for entry, after the same draws."""
    dets = [F(2), F(-3), F(1, 2), F(-5, 7)]
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        got = _exact_probe(GroupTag("GL", "R", n), rng, dets)
        want = mul(random_sl(n, QR, ref), diag_first(n, ref.choice(dets), QR))
        assert got == want and got.entries == want.entries
        assert rng.getstate() == ref.getstate()
