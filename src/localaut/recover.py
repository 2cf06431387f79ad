"""Recovery of canonical-form data from oracle access to a sampled map.

`recover` probes an oracle (black-box callable, sample file, or
subprocess) with a deterministic schedule of structured matrices and
reconstructs the (kind, sigma, T, g) of A -> g(det A) T sigma(A)^(+-) T^-1,
or refutes that any automorphism implements the oracle. One pipeline runs
every group, with the stages its canonical form needs:

* fit (kind, sigma) and T on the det-1 subgroup of the group, where
  g(1) = 1 leaves no scalar: query the fit probes and ask
  `localcheck.fit_map`, the fit `local-check` runs on samples, which
  automorphism of the subgroup passes through the probes and their images.
  The probes are the generating pair D and C of `generating_pair`, whose
  op images generate M_n as an algebra, so on each branch the intertwiner
  space of the two pairs is one line of invertible matrices, which gives
  T, or zero, which refutes the branch; SU_n and U_n ask the pair's C64
  lifts and fit the unitary element of the line;
* fit g where the form carries it: diag(d, 1, ..., 1) probes isolate g(d),
  on R* for GL_n(R) and on the circle for U_n;
* verify on fresh probes: exactly for SL_n and GL_n(R), by the residual
  for SU_n, projectively for U_n.

A stage that sees the oracle contradict every automorphism raises `_Stop`,
which becomes the Refuted (or Inconclusive) report; a fit that no branch
passes is Refuted when fit_map refuted every branch and Inconclusive when
it left one open. The report's engine label follows the group
(`ENGINE_LABELS`), and each public engine name is `recover` restricted to
one group. Probes are charged against an oracle budget (default
10 n^2 + 200); exceeding it raises BudgetExceeded with partial progress
attached.
"""
from __future__ import annotations

import cmath
import contextlib
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial

from .autos import STANDARD, Automorphism, apply, make_automorphism
from .errors import (
    BadParameters,
    BudgetExceeded,
    LocalautError,
    NoEngine,
    NotInGroup,
    OracleIncomplete,
    ResidualFail,
)
from .localcheck import fit_map
from .matrices import (
    C64,
    QR,
    GroupTag,
    Mat,
    coerce_scalar,
    diag_first,
    diagonal,
    equal,
    flat,
    mat,
    member,
    mul,
    pivot,
    random_sl,
    random_su,
    ratio,
    scalar_one,
    scale_first,
    smul,
    to_c64,
)
from .scalarmaps import character_point, induced, table_screen, witness_character
from .scalars import ANSWER_TOL, CIRCLE_DRIFT, RECHECK_TOL, SU_RESIDUAL, GaussRational
from .serialize import mat_from_json, mat_to_json

DEFAULT_DETS = (Fraction(2), Fraction(3))
UNITARY_Z = GaussRational(Fraction(3, 5), Fraction(4, 5))  # the unitary D is diag(z, z^2, ...) for this z
CIRCLE_GENERATORS = (1j,)  # determinant probes of the U_n character
CHILD_GRACE_S = 2  # seconds an oracle child may take to exit after stdin closes
ORACLE_REPLY_S = 30  # seconds an oracle child may take to answer one probe


def default_budget(n: int) -> int:
    return 10 * n * n + 200


# ---------------------------------------------------------------------------
# oracles


class Oracle:
    """Budgeted access to an unknown map on a classical group."""

    def __init__(self, group: GroupTag, budget: int | None = None):
        self.group = group
        self.budget = default_budget(group.n) if budget is None else budget
        self.count = 0
        self.transcript: list[tuple[Mat, Mat]] = []

    def query(self, a: Mat) -> Mat:
        if self.count >= self.budget:
            raise BudgetExceeded(f"oracle budget {self.budget} exhausted")
        if not member(a, self.group):
            raise BadParameters("engine bug: probe outside the group")
        self.count += 1
        out = self._call(a)
        if not member(out, self.group, ANSWER_TOL):
            raise NotInGroup("oracle output left the group")
        self.transcript.append((a, out))
        return out

    def _call(self, a: Mat) -> Mat:
        raise NotImplementedError


class FunctionOracle(Oracle):
    def __init__(self, group, fn, budget=None):
        super().__init__(group, budget)
        self.fn = fn

    def _call(self, a: Mat) -> Mat:
        return self.fn(a)


class AutomorphismOracle(Oracle):
    def __init__(self, auto: Automorphism, budget=None):
        super().__init__(auto.group, budget)
        self.auto = auto

    def _call(self, a: Mat) -> Mat:
        # query has checked the probe's membership
        return apply(self.auto, a, check=False)


class SampleOracle(Oracle):
    """Exact-match lookup in a finite sample table. Probes with no recorded
    answer raise OracleIncomplete carrying the probe, so a caller can extend
    the sample file and retry."""

    def __init__(self, group, samples, budget=None):
        super().__init__(group, budget)
        self.table = dict(samples)

    def _call(self, a: Mat) -> Mat:
        if a not in self.table:
            raise OracleIncomplete(
                "sample file has no answer for a required probe", missing_probe=mat_to_json(a)
            )
        return self.table[a]


class SubprocessOracle(Oracle):
    """One JSON object per line on stdin/stdout of a child process."""

    def __init__(self, group, cmd, budget=None):
        import subprocess

        super().__init__(group, budget)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._pending = b""

    def _call(self, a: Mat) -> Mat:
        import json

        try:
            self.proc.stdin.write(json.dumps(mat_to_json(a)).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise ResidualFail("oracle subprocess closed its input") from exc
        line = self._reply()
        if not line:
            raise ResidualFail("oracle subprocess closed its output")
        try:
            return mat_from_json(json.loads(line))
        except (ValueError, TypeError, LocalautError) as exc:
            raise ResidualFail(f"oracle subprocess sent a reply that is not a matrix: {line.strip()[:200]!r}") from exc

    def _reply(self) -> str:
        """The child's next line ("" once it closed its output), waiting at
        most ORACLE_REPLY_S on the pipe: a stalled child ends the recovery
        in ResidualFail instead of hanging it."""
        import os
        import select
        import time

        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + ORACLE_REPLY_S
        while b"\n" not in self._pending:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise ResidualFail(f"oracle subprocess sent no reply within {ORACLE_REPLY_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        return (line + newline).decode(errors="replace")

    def close(self):
        """Close the child's stdin, give it CHILD_GRACE_S to exit, then kill
        it: a lingering child must not cost a finished recovery its report."""
        import subprocess

        if self.proc.stdin:
            # a child that closed its input leaves the last probe unsent
            with contextlib.suppress(BrokenPipeError):
                self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# reports and shared steps


@dataclass
class RecoveryReport:
    status: str  # "Recovered" | "Refuted" | "Inconclusive"
    group: GroupTag
    engine: str
    auto: Automorphism | None = None
    probes_used: int = 0
    residual: float = 0.0
    g_points: list = field(default_factory=list)
    f_table: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    refutation: dict | None = None


class _Stop(Exception):
    """An early verdict from a stage: Refuted with a reason and extra
    evidence, or Inconclusive with a note."""

    def __init__(self, reason: str, status: str = "Refuted", **extra):
        super().__init__(reason)
        self.reason, self.status, self.extra = reason, status, extra


def _normalize(m: Mat) -> Mat:
    """Invertible m scaled so that its pivot is 1 (exact T) or real and
    positive (a unitary U, which the fit pins down only up to a phase)."""
    xs = flat(m)
    z = xs[pivot(xs)]
    return smul(abs(z) / z if m.regime == C64 else scalar_one(m.regime) / z, m)


def _ratio(observed: Mat, model: Mat, reason: str, **extra):
    """c with observed = c * model (within RECHECK_TOL in C64), or a
    refutation with reason."""
    c = ratio(flat(observed), flat(model), RECHECK_TOL)
    if c is None:
        raise _Stop(reason, **extra)
    return c


# ---------------------------------------------------------------------------
# stage: fit T on the det-1 subgroup


def generating_pair(group: GroupTag) -> tuple[Mat, Mat]:
    """The det-1 probes (D, C) of the fit on group, exact: the signed cycle
    C, 1 on the superdiagonal and (-1)^(n-1) at (n, 1), and D = diag(h, 3,
    ..., n, 2 / (h n!)) with h = 2 over Q and h = 1 + i over Q(i), or on
    SU_n and U_n the unitary D = diag(z, z^2, ..., z^(n-1), z^(-n(n-1)/2)).

    D has n distinct eigenvalues (z = (3 + 4i) / 5 is no root of unity, as
    those in Q(i) are the fourth roots), and its spectrum differs from
    those of D^-1, and over Q(i) of conj(D) and conj(D)^-1, so the
    characteristic polynomial of phi(D) names the branch. The unitary D has
    D^-1 = conj(D), so it names only sigma: enough on SU_n and U_n, not on
    SL_n(C). C is a signed permutation, so op(C) = C on every branch.

    The pair certifies the fit because op(D) and op(C) generate M_n as an
    algebra: op(D) is diagonal with distinct eigenvalues, so polynomials in
    it give every E_ii; E_ii op(C) E_(i+1)(i+1) is a nonzero multiple of
    E_i(i+1), and E_n1 likewise, and products along the cycle give every
    E_ij. If T op(P) = phi(P) T for both probes, then ker T is invariant
    under both op(P), hence under all of M_n, so it is 0 or everything:
    every nonzero intertwiner is invertible. Two of them, T and T', give
    T'^-1 T commuting with all of M_n, a scalar (Schur's lemma). So on each
    branch the intertwiner space of the pairs (op(P), phi(P)) is {0}, which
    refutes the branch, or one line of invertible matrices whose first
    basis element is the answer; the similarity solver never searches."""
    n, regime = group.n, group.regimes()[0]
    if group.unitary:
        diag = [UNITARY_Z**k for k in range(1, n)] + [UNITARY_Z ** -(n * (n - 1) // 2)]
    else:
        h = Fraction(2) if regime == QR else GaussRational(1, 1)
        tail = coerce_scalar(regime, Fraction(2, factorial(n)))  # 1 / (3 ... n)
        diag = [h, *range(3, n + 1), tail / h]
    c = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = 1
    c[n - 1][0] = (-1) ** (n - 1)
    return diagonal(diag, regime), mat(c, regime)


def _fit_model(oracle: Oracle) -> Automorphism:
    """The automorphism, without its character, that `localcheck.fit_map`
    fits through the generating pair (its C64 lifts on the unitary groups,
    whose oracles answer in C64) and its images on the det-1 subgroup of
    oracle's group, where g(1) = 1 leaves no scalar to read. An image
    outside the subgroup fits no branch. Each branch's intertwiner space is
    {0} or a line (`generating_pair`), so the fit needs no seed. T is
    normalized (`_normalize`).

    With no witness, the recovery is Inconclusive when some branch is, and
    Refuted otherwise, in C64 too; the reason names each branch's verdict."""
    group = oracle.group
    subgroup = GroupTag("SUn" if group.unitary else "SL", group.field, group.n)
    probes = [to_c64(p) if group.unitary else p for p in generating_pair(group)]
    verdict = fit_map(subgroup, [(p, oracle.query(p)) for p in probes])
    fit = verdict.witness
    if fit is not None:
        return make_automorphism(group, fit.kind, fit.sigma, _normalize(fit.t))
    if any(b.outcome == "inconclusive" for b in verdict.branches):
        branches = "; ".join(f"{b.kind}/{b.sigma}: {b.detail}" for b in verdict.branches)
        raise _Stop(f"no automorphism certified through the fit probes: {branches}", status="Inconclusive")
    raise _Stop(f"fit probes admit no automorphism: {'; '.join(verdict.refusal_reasons())}")


def _frob_dist(a: Mat, b: Mat) -> float:
    return sum(abs(a[i, j] - b[i, j]) ** 2 for i in range(a.n) for j in range(a.n)) ** 0.5


# ---------------------------------------------------------------------------
# stage: fit g (GL_n(R), U_n)


def _fit_g(oracle: Oracle, model: Automorphism, dets) -> dict:
    """g from diag(d, 1, ..., 1) probes at dets, which isolate g(d)
    entrywise: on R* for GL_n(R), at `CIRCLE_GENERATORS` for U_n. g(d) is
    the scalar c with phi(probe) = c * model(probe), where model is the
    fitted automorphism without its character.

    The table is screened against the scalar class of the branch, once, in
    probe order by `table_screen`; a violation is Refuted with the
    offending dets.
    """
    n, sigma, regime = model.group.n, model.sigma, model.t.regime
    first = model.kind == STANDARD
    g_points = []
    for d in dets:
        probe = diag_first(n, d, regime)
        why = "determinant probe is not a scalar multiple of the conjugated model"
        c = _ratio(oracle.query(probe), apply(model, probe, check=False), why, det=_wire(d))
        g_points.append((character_point(model.group, sigma, d), c))
    res = table_screen(model.group, first, sigma, g_points)
    if not res.ok:
        raise _class_stop(res)
    # the screen is the class verdict on g, and the model's T, kind and
    # sigma are checked already, so g joins the model without a second screen
    return {
        "auto": replace(model, g=witness_character(model.group, g_points)),
        "g_points": [(_wire(d), _wire(c)) for d, c in g_points],
        "f_table": [(d, induced(d, c, n, first)) for d, c in g_points],
    }


def _wire(x):
    """A probed det or g value as the report carries it: a numeric circle
    point as [re, im], an exact one as its string."""
    return [x.real, x.imag] if isinstance(x, complex) else str(x)


def _class_stop(res) -> _Stop:
    """The refutation of a g table that `table_screen` refused: at a det or
    on a pair of dets, or with the relation that |g| breaks or f keeps."""
    if res.evidence:
        broken = "image_product" in res.evidence
        what = "|g| breaks a relation among the dets" if broken else "f is not injective on the dets"
        return _Stop(f"scalar class violated: {what}", **res.evidence)
    where = res.counterexample
    at = f"at det {where[0]}" if len(where) == 1 else f"on dets ({where[0]}, {where[1]})"
    return _Stop(f"scalar class violated {at}: {res.reason}")


# ---------------------------------------------------------------------------
# stage: verify on fresh probes


def _exact_probe(group: GroupTag, rng: random.Random, dets) -> Mat:
    """A random SL_n member; on GL_n(R) times diag(d, 1, ..., 1) for a
    probed determinant d, which scales its column 0 on the same grid."""
    probe = random_sl(group.n, group.regimes()[0], rng)
    if group.family == "GL":
        probe = scale_first(probe, rng.choice(dets), column=True)
    return probe


def _verify_exact(oracle: Oracle, candidate: Automorphism, seed: int, count: int, dets) -> None:
    """The image of every fresh `_exact_probe` must equal the candidate's,
    exactly. `query` tests each probe's membership, so the candidate
    applies it unchecked."""
    rng = random.Random(seed)
    for _ in range(count):
        probe = _exact_probe(candidate.group, rng, dets)
        if not equal(oracle.query(probe), apply(candidate, probe, check=False)):
            raise _Stop("verification probe disagrees with the recovered automorphism")


def _verify_su(oracle: Oracle, candidate: Automorphism, seed: int, count: int) -> float:
    """The largest Frobenius distance between a fresh SU_n probe's image
    and the candidate's; Refuted beyond SU_RESIDUAL. `query` tests each
    probe's membership, so the candidate applies it unchecked."""
    residual = 0.0
    for k in range(count):
        probe = random_su(candidate.group.n, seed=seed * 413 + 57 + k)
        residual = max(residual, _frob_dist(oracle.query(probe), apply(candidate, probe, check=False)))
    if residual > SU_RESIDUAL:
        raise _Stop(f"verification residual {residual:.3e} exceeds tolerance")
    return residual


def _verify_projective(oracle: Oracle, model: Automorphism, seed: int, count: int) -> float:
    """Each fresh U_n probe's image must be a scalar c within CIRCLE_DRIFT
    of the circle times U sigma(P) U^-1; the residual is the largest
    Frobenius distance between the two."""
    n, residual = model.group.n, 0.0
    for k in range(count):
        # an SU_n sample times diag(z, 1, ..., 1) for a random phase z
        z = cmath.exp(2j * cmath.pi * random.Random(seed * 733 + 91 + k).random())
        probe = mul(random_su(n, seed=seed * 733 + 91 + k), diag_first(n, z, C64))
        got = oracle.query(probe)
        want = apply(model, probe, check=False)
        c = _ratio(got, want, "verification probe is not conjugation followed by a scalar")
        if abs(abs(complex(c)) - 1) > CIRCLE_DRIFT:
            raise _Stop("verification scalar leaves the circle")
        residual = max(residual, _frob_dist(got, smul(c, want)))
    return residual


# ---------------------------------------------------------------------------
# the pipeline

# (family, field) -> the engine label a report carries
ENGINE_LABELS = {
    ("SL", "R"): "sln_common",
    ("SL", "C"): "sln_common",
    ("GL", "R"): "glnr",
    ("SUn", "C"): "sun",
    ("Un", "C"): "un",
}


def recover(oracle: Oracle, seed: int = 0, verify_probes: int = 50, dets=None) -> RecoveryReport:
    """Recover oracle's map through the pipeline for oracle.group and report.

    dets (default 2 and 3) feeds the GL_n(R) determinant probes. The exact
    groups compare exactly, and the unitary stages judge by the tolerances
    named in `scalars`, so the library and `localaut recover` give one
    verdict. A _Stop from a stage becomes the Refuted or Inconclusive
    report; an exhausted budget re-raises with the engine label and probe
    count attached as `partial`. Raises NoEngine for
    GL_n(C), and BadParameters before the first probe for verify_probes < 1
    (a verdict on no fresh probe would certify nothing) and, on GL_n(R),
    for empty, repeated or zero dets.
    """
    if verify_probes < 1:
        raise BadParameters(f"a recovery needs at least 1 verification probe, got {verify_probes}")
    group = oracle.group
    engine = ENGINE_LABELS.get((group.family, group.field))
    if engine is None:
        label = f"{group.family}-{group.field}-{group.n}".lower()
        raise NoEngine(f"no recovery engine for {label}")
    dets = DEFAULT_DETS if dets is None else dets
    if group.family == "GL":
        dets = [Fraction(d) for d in dets]
        if not dets:
            raise BadParameters("GL_n(R) recovery needs at least one determinant probe")
        if len(set(dets)) < len(dets):
            raise BadParameters("each determinant is probed once; the dets repeat one")
        if 0 in dets:
            raise BadParameters("0 is not a determinant of an invertible matrix")
    try:
        fields = _pipeline(oracle, seed, verify_probes, dets)
        status = "Recovered"
    except _Stop as stop:
        status = stop.status
        if status == "Inconclusive":
            fields = {"notes": [stop.reason]}
        else:
            fields = {"refutation": {"reason": stop.reason, **stop.extra}}
    except BudgetExceeded as exc:
        exc.partial = {"engine": engine, "probes_used": oracle.count}
        raise
    return RecoveryReport(status, group, engine, probes_used=oracle.count, **fields)


def _pipeline(oracle: Oracle, seed, verify_probes, dets) -> dict:
    """fit T -> fit g -> verify, each as the group's canonical form needs
    it; returns the Recovered report's fields."""
    group = oracle.group
    model = _fit_model(oracle)
    if group.family == "GL":
        fields = _fit_g(oracle, model, dets)
    elif group.family == "Un":
        fields = _fit_g(oracle, model, CIRCLE_GENERATORS)
        fields["notes"] = ["verification is projective: scalars at unprobed determinants stay unchecked"]
    else:
        fields = {"auto": model}
    if group.family == "SUn":
        fields["residual"] = _verify_su(oracle, model, seed, verify_probes)
    elif group.family == "Un":
        fields["residual"] = _verify_projective(oracle, model, seed, verify_probes)
    else:
        _verify_exact(oracle, fields["auto"], seed, verify_probes, dets)
    return fields


# The engine names below are `recover` restricted to one group.


def _only(oracle: Oracle, carrier: str, family: str, field: str | None = None) -> None:
    if oracle.group.family != family or field not in (None, oracle.group.field):
        raise BadParameters(f"this engine recovers {carrier} automorphisms")


def recover_sln_common(oracle: Oracle, seed: int = 0, verify_probes: int = 50) -> RecoveryReport:
    _only(oracle, "SL", "SL")
    return recover(oracle, seed, verify_probes)


def recover_slnr_short(oracle: Oracle, seed: int = 0, verify_probes: int = 50) -> RecoveryReport:
    _only(oracle, "SL_n(R)", "SL", "R")
    return recover(oracle, seed, verify_probes)


def recover_glnr(oracle: Oracle, dets=DEFAULT_DETS, seed: int = 0, verify_probes: int = 50) -> RecoveryReport:
    _only(oracle, "GL_n(R)", "GL", "R")
    return recover(oracle, seed, verify_probes, dets)


def recover_sun(oracle: Oracle, seed: int = 0, verify_probes: int = 50) -> RecoveryReport:
    _only(oracle, "SU_n", "SUn")
    return recover(oracle, seed, verify_probes)


def recover_un(oracle: Oracle, seed: int = 0, verify_probes: int = 50) -> RecoveryReport:
    _only(oracle, "U_n", "Un")
    return recover(oracle, seed, verify_probes)
