"""Recovery: the one pipeline behind every engine name, its certificates
(round trips, refutations, budgets) and the oracles it probes."""
import cmath
import random
import re
import sys
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
from localaut.cli import MAX_N
from localaut.errors import BadParameters, BudgetExceeded, NoEngine, NotInGroup, OracleIncomplete
from localaut.matrices import (
    C64,
    build_basis,
    charpoly,
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
    member,
    mul,
    random_gl,
    random_sl,
    random_su,
    random_unitary,
    ratio,
    smul,
    to_c64,
    transpose,
)
from localaut.recover import (
    CIRCLE_GENERATORS,
    AutomorphismOracle,
    FunctionOracle,
    SampleOracle,
    _exact_probe,
    _verify_exact,
    _verify_su,
    generating_pair,
    recover,
    recover_glnr,
    recover_slnr_short,
    recover_sln_common,
    recover_sun,
    recover_un,
)
from localaut.scalarmaps import PowerFunc, det_relation_refutations, evaluate
from localaut.scalars import GaussRational
from localaut.similarity import intertwiner_basis

F = Fraction


def _refusal(*branches):
    """The refutation of a recovery whose fit probes no branch fits, from
    (branch, why) in `localcheck.fit_map`'s branch order."""
    return {"reason": "fit probes admit no automorphism: " + "; ".join(f"{b}: {why}" for b, why in branches)}


ZERO_SPACE = "intertwiner space is zero"
SPECTRA_DIFFER = "characteristic polynomials differ"


def _scalar_ratio_ok(t_rec, t_true):
    r = mul(t_rec, inv(t_true))
    return bool(ratio(flat(r), flat(identity(r.n, r.regime))))


def test_sl_real_round_trip_both_kinds():
    """`recover_slnr_short` is `recover` on SL_n(R): the pair fit certifies
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


@pytest.mark.parametrize(
    "family, field", [("SL", "R"), ("SL", "C"), ("SUn", "C"), ("Un", "C")], ids=["QR", "QC", "SUn", "Un"]
)
def test_the_generating_pair_certifies_the_fit_at_every_n(family, field):
    """For every n the command line accepts: D and C lie in SL_n, and the
    unitary D and C, exact over Q(i), in SU_n and in U_n; on each branch
    the commutant of {op(D), op(C)} is the scalars, so the pair fit is the
    certificate `generating_pair` states, and the spectra of op(D) tell the
    branches apart, so the fit's spectrum test keeps one."""
    sigmas = (SIGMA_ID, SIGMA_CONJ) if field == "C" else (SIGMA_ID,)
    kinds = (STANDARD,) if family != "SL" else (STANDARD, CONTRAGREDIENT)
    branches = [(kind, sigma) for sigma in sigmas for kind in kinds]
    for n in range(3, MAX_N + 1):
        d, c = generating_pair(GroupTag(family, field, n))
        holders = ("SUn", "Un") if family != "SL" else ("SL",)
        assert all(member(p, GroupTag(h, field, n)) for h in holders for p in (d, c)), n
        spectra = []
        for branch in branches:
            pairs = [(op(p, *branch), op(p, *branch)) for p in (d, c)]
            assert len(intertwiner_basis(pairs)) == 1, (n, branch)
            spectra.append(tuple(charpoly(op(d, *branch))))
        assert len(set(spectra)) == len(branches), n


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
    """The shears, like the basis B and the generating pair D, C, generate
    M_n, so an automorphism's pairs on each have a one-dimensional
    intertwiner space, spanned by T, and the fit reads T off the pair's."""
    regime, n, kind, sigma, seed = case
    t = random_gl(n, regime, random.Random(seed))
    group = GroupTag("SL", "R" if regime == QR else "C", n)
    auto = make_automorphism(group, kind, sigma, t)
    for probes in (_shears(n, regime), generating_pair(group)):
        basis = intertwiner_basis(_fit_pairs(auto, probes))
        assert len(basis) == 1 and _scalar_ratio_ok(basis[0], t)
    if regime == QR:
        assert len(intertwiner_basis(_fit_pairs(auto, build_basis("B", n).mats))) == 1
    rep = recover_sln_common(AutomorphismOracle(auto), seed=0, verify_probes=2)
    assert rep.status == "Recovered"
    assert (rep.auto.kind, rep.auto.sigma) == (kind, sigma)
    assert _scalar_ratio_ok(rep.auto.t, t)


def test_incoherent_shear_scaling_is_refuted():
    """D -> D and C -> X C X^-1 for the shear X = I + E_12: each image is
    similar to its probe, through I and through X, but no single similarity
    moves both, since only diagonal matrices commute with D."""
    group = GroupTag("SL", "R", 3)
    d, c = generating_pair(group)
    x = _shear(3, QR, 0, 1)
    moved = mul(mul(x, c), inv(x))
    fn = lambda a: moved if equal(a, c) else a
    assert intertwiner_basis([(d, fn(d)), (c, fn(c))]) == []
    rep = recover_sln_common(FunctionOracle(group, fn), seed=0, verify_probes=5)
    assert (rep.status, rep.probes_used) == ("Refuted", 2)
    assert rep.refutation == _refusal(("standard/id", ZERO_SPACE), ("contragredient/id", SPECTRA_DIFFER))


@pytest.mark.parametrize(
    "engine, spec",
    [
        (recover_sln_common, ("SL", "C", 3)),
        (recover_glnr, ("GL", "R", 3)),
        (recover_slnr_short, ("SL", "R", 3)),
        (recover_sln_common, ("SL", "R", 4)),
    ],
)
def test_transpose_is_refuted_at_the_shear_fit(engine, spec):
    """The fit of T refutes transpose and inverse after its 2 probes:
    transpose fixes D and inverse gives it the contragredient spectrum, so
    each passes the spectrum test of one branch, and both send C to
    C^t = C^-1, which no similarity matches with op(C) = C on that branch."""
    group = GroupTag(*spec)
    sigmas = ["id", "conj"] if group.field == "C" else ["id"]
    for fn, spectral in ((transpose, "standard/id"), (inv, "contragredient/id")):
        rep = engine(FunctionOracle(group, fn), seed=0, verify_probes=5)
        assert (rep.status, rep.probes_used) == ("Refuted", 2), fn.__name__
        branches = [f"{kind}/{sigma}" for kind in ("standard", "contragredient") for sigma in sigmas]
        want = [(b, ZERO_SPACE if b == spectral else SPECTRA_DIFFER) for b in branches]
        assert rep.refutation == _refusal(*want), fn.__name__


def test_verification_needs_a_fresh_probe():
    """An oracle that answers like an automorphism for the 2 probes of the
    pair fit, then by transpose: a recovery with no verification probe
    would certify it, one probe refutes it."""
    group = GroupTag("SL", "R", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(1)))

    def switching():
        calls = []

        def fn(a):
            calls.append(a)
            return apply(auto, a) if len(calls) <= 2 else transpose(a)

        return FunctionOracle(group, fn)

    with pytest.raises(BadParameters, match="at least 1 verification probe"):
        recover(switching(), verify_probes=0)
    rep = recover(switching(), verify_probes=1)
    assert (rep.status, rep.probes_used) == ("Refuted", 3)


def test_switching_automorphism_is_refuted_at_the_basis_fit():
    """An oracle that answers D with one automorphism and C with another:
    the probe images admit no similarity."""
    group = GroupTag("SL", "R", 3)
    first, then = (
        make_automorphism(group, STANDARD, SIGMA_ID, random_gl(3, QR, random.Random(s))) for s in (1, 2)
    )
    calls = []

    def fn(a):
        calls.append(a)
        return apply(first if len(calls) <= 1 else then, a)

    rep = recover_slnr_short(FunctionOracle(group, fn), seed=0, verify_probes=5)
    assert (rep.status, rep.probes_used) == ("Refuted", 2)
    assert rep.refutation == _refusal(("standard/id", ZERO_SPACE), ("contragredient/id", SPECTRA_DIFFER))


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
    """A -> I answers every fit probe with the spectrum {1, ..., 1}, which
    no branch gives it, so each branch is refuted at the spectrum test. The
    fit probes are D and C, where D = diag(2, 3, 1/6) over Q and
    diag(1 + i, 3, 1/(3 (1 + i))) over Q(i) decides the kind (and sigma),
    and on SU_n and U_n the C64 lift of D = diag(z, z^2, z^-3) with
    z = (3 + 4i)/5 decides sigma."""
    group = GroupTag(*spec)
    oracle = FunctionOracle(group, lambda a: identity(a.n, a.regime))
    rep = recover(oracle, seed=0, verify_probes=5)
    assert rep.status == "Refuted"
    kinds = ["standard"] if what == "sigma" else ["standard", "contragredient"]
    sigmas = ["id", "conj"] if group.field == "C" else ["id"]
    assert rep.refutation == _refusal(*((f"{k}/{s}", SPECTRA_DIFFER) for k in kinds for s in sigmas))
    assert rep.probes_used == 2
    if what == "sigma":
        z = GaussRational(F(3, 5), F(4, 5))
        assert close(oracle.transcript[0][0], to_c64(matrices.diagonal([z, z**2, z**-3], QC)), 0.0)
        return
    if group.field == "R":
        entries = [F(2), F(3), F(1, 6)]
    else:
        entries = [GaussRational(1, 1), F(3), GaussRational(F(1, 6), F(-1, 6))]
    want = mat([[x if i == j else 0 for j in range(3)] for i, x in enumerate(entries)], group.regimes()[0])
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


@pytest.mark.parametrize(
    "spec, factor, probes, branches",
    [
        (("GL", "R", 3), F(2), 2, ["standard/id", "contragredient/id"]),
        (("Un", "C", 3), 1j, 2, ["standard/id", "standard/conj"]),
    ],
    ids=["gl-r-3", "un-3"],
)
def test_an_answer_outside_the_det_1_subgroup_fits_no_branch(spec, factor, probes, branches):
    """A -> 2A on GL_3(R) and A -> iA on U_3 answer every det-1 fit probe
    inside the group but outside its det-1 subgroup, where the fit runs:
    the answer's spectrum is the probe's scaled, so each branch is refuted
    at the spectrum test and the recovery ends in a report."""
    group = GroupTag(*spec)
    rep = recover(FunctionOracle(group, lambda a: smul(factor, a)), seed=0, verify_probes=5)
    assert (rep.status, rep.probes_used) == ("Refuted", probes)
    assert rep.refutation == _refusal(*((b, SPECTRA_DIFFER) for b in branches))


@pytest.fixture
def membership_tests(monkeypatch):
    """Every matrix whose membership is decided, in order."""
    seen = []
    decide = matrices.member

    def counted(a, *args):
        seen.append(a)
        return decide(a, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("localaut") and vars(module).get("member") is decide:
            monkeypatch.setattr(module, "member", counted)
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
    assert _verify_su(oracle, auto, seed=1, count=4) < 1e-9
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


@pytest.mark.parametrize("family", ["SUn", "Un"])
def test_transpose_has_no_unitary_intertwiner(family):
    """A -> A^t reverses products, so no conjugation explains it."""
    rep = recover(FunctionOracle(GroupTag(family, "C", 3), transpose), seed=0)
    assert rep.status == "Inconclusive"
    assert rep.notes == [
        "no automorphism certified through the fit probes: standard/id: no unitary intertwiner found; "
        "standard/conj: characteristic polynomials differ"
    ]


@pytest.mark.parametrize("family", ["SUn", "Un"])
def test_unitary_noise_of_1e_7_is_inconclusive(family):
    """One set of recovery thresholds: the library reads an oracle whose
    answers carry 1e-7 of unitary noise as `localaut recover` does, with no
    unitary intertwiner at the fit's tolerance."""
    group = GroupTag(family, "C", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_CONJ, random_unitary(3, seed=3))
    eps, answered = 1e-7, []

    def noisy(a):
        # the answer times W diag(e^(i eps), e^(-i eps), 1) W^*, unitary with det 1
        w = random_unitary(3, seed=100 + len(answered))
        turn = matrices.diagonal([cmath.exp(1j * eps), cmath.exp(-1j * eps), 1], C64)
        answered.append(a)
        return mul(apply(auto, a, check=False), mul(mul(w, turn), matrices.conj_transpose(w)))

    rep = recover(FunctionOracle(group, noisy), seed=1)
    assert rep.status == "Inconclusive"
    assert rep.notes == [
        "no automorphism certified through the fit probes: standard/id: characteristic polynomials differ; "
        "standard/conj: no unitary intertwiner found"
    ]


@pytest.mark.parametrize(
    "family, reason",
    [
        ("SUn", "verification residual .* exceeds tolerance"),
        ("Un", "verification probe is not conjugation followed by a scalar"),
    ],
    ids=["SUn", "Un"],
)
def test_oracle_that_switches_automorphism_after_the_fit_is_refuted(family, reason):
    """The answers to the fit probes (the generating pair, and on U_n the
    circle probe) come from one automorphism and every later one from
    another, so the first verification answer is the first to switch: the
    fit succeeds, and verification refutes it."""
    group = GroupTag(family, "C", 3)
    fitted = len(generating_pair(group)) + (len(CIRCLE_GENERATORS) if family == "Un" else 0)
    first, later = (make_automorphism(group, STANDARD, SIGMA_ID, random_unitary(3, s)) for s in (5, 6))
    answered = []

    def switching(a):
        answered.append(a)
        return apply(first if len(answered) <= fitted else later, a)

    rep = recover(FunctionOracle(group, switching), seed=0)
    assert rep.status == "Refuted"
    assert re.fullmatch(reason, rep.refutation["reason"])
