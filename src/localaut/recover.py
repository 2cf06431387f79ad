"""Recovery of canonical-form data from oracle access to a sampled map.

`recover` probes an oracle (black-box callable, sample file, or
subprocess) with a deterministic schedule of structured matrices and
reconstructs the (kind, sigma, T, g) of A -> g(det A) T sigma(A)^(+-) T^-1,
or refutes that any automorphism implements the oracle. One pipeline runs
every group, with the stages its canonical form needs:

* detect the branch: one diagonal probe, whose image has the
  characteristic polynomial of op(probe) = sigma(probe)^(+-) for exactly
  one branch, gives the kind (exact groups) or sigma (unitary groups);
* fit T as `localcheck.check_pair` does, from pairs (op(P), phi(P)): the
  op images of the shears P = I + E_ij generate M_n as an algebra, so
  their intertwiner space with the images is one line of invertible
  matrices, which gives T, or zero, which refutes every automorphism; SU_n
  and U_n fit a unitary intertwiner on random SU_n samples instead;
* over C, one complex shear P decides the exact sigma by comparing phi(P)
  with T op(P) T^-1;
* fit g where the form carries it: diag(d, 1, ..., 1) probes isolate g(d),
  on R* for GL_n(R) and on the circle for U_n;
* verify on fresh probes: exactly for SL_n and GL_n(R), by the residual
  for SU_n, projectively for U_n.

A stage that sees the oracle contradict every automorphism raises `_Stop`,
which becomes the Refuted (or Inconclusive) report. The report's engine
label follows the group (`ENGINE_LABELS`), and each public engine name is
`recover` restricted to one group. Probes are charged against an oracle
budget (default 10 n^2 + 200); exceeding it raises BudgetExceeded with
partial progress attached.
"""
from __future__ import annotations

import cmath
import contextlib
import random
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
from .errors import (
    BadParameters,
    BudgetExceeded,
    LocalautError,
    NoEngine,
    NotInGroup,
    OracleIncomplete,
    ResidualFail,
)
from .matrices import (
    C64,
    GroupTag,
    Mat,
    charpolys_match,
    diag_first,
    diagonal,
    equal,
    flat,
    inv,
    member,
    mul,
    pivot,
    random_sl,
    random_su,
    ratio,
    scalar_one,
    scale_first,
    shear,
    smul,
)
from .scalarmaps import character_point, induced, table_screen, witness_character
from .scalars import DEFAULT_TOL, GQ_I
from .serialize import mat_from_json, mat_to_json
from .similarity import simultaneous_similarity, unitary_intertwiner

DEFAULT_DETS = (Fraction(2), Fraction(3))
SU_SAMPLES = 4  # random SU_n samples the unitary intertwiner is fitted on
CIRCLE_GENERATORS = (1j,)  # determinant probes of the U_n character
CHILD_GRACE_S = 2  # seconds an oracle child may take to exit after stdin closes
ORACLE_REPLY_S = 30  # seconds an oracle child may take to answer one probe


def default_budget(n: int) -> int:
    return 10 * n * n + 200


# ---------------------------------------------------------------------------
# oracles


class Oracle:
    """Budgeted access to an unknown map on a classical group."""

    def __init__(self, group: GroupTag, budget: int | None = None, tol: float = DEFAULT_TOL):
        self.group = group
        self.budget = default_budget(group.n) if budget is None else budget
        self.tol = tol
        self.count = 0
        self.transcript: list[tuple[Mat, Mat]] = []

    def query(self, a: Mat) -> Mat:
        if self.count >= self.budget:
            raise BudgetExceeded(f"oracle budget {self.budget} exhausted")
        if not member(a, self.group, self.tol):
            raise BadParameters("engine bug: probe outside the group")
        self.count += 1
        out = self._call(a)
        if not member(out, self.group, max(self.tol, 1e-6)):
            raise NotInGroup("oracle output left the group")
        self.transcript.append((a, out))
        return out

    def _call(self, a: Mat) -> Mat:
        raise NotImplementedError


class FunctionOracle(Oracle):
    def __init__(self, group, fn, budget=None, tol=DEFAULT_TOL):
        super().__init__(group, budget, tol)
        self.fn = fn

    def _call(self, a: Mat) -> Mat:
        return self.fn(a)


class AutomorphismOracle(Oracle):
    def __init__(self, auto: Automorphism, budget=None, tol=DEFAULT_TOL):
        super().__init__(auto.group, budget, tol)
        self.auto = auto

    def _call(self, a: Mat) -> Mat:
        # query has checked the probe's membership, at a tolerance no looser
        return apply(self.auto, a, max(self.tol, 1e-9), check=False)


class SampleOracle(Oracle):
    """Exact-match lookup in a finite sample table. Probes with no recorded
    answer raise OracleIncomplete carrying the probe, so a caller can extend
    the sample file and retry."""

    def __init__(self, group, samples, budget=None, tol=DEFAULT_TOL):
        super().__init__(group, budget, tol)
        self.table = dict(samples)

    def _call(self, a: Mat) -> Mat:
        if a not in self.table:
            raise OracleIncomplete(
                "sample file has no answer for a required probe", missing_probe=mat_to_json(a)
            )
        return self.table[a]


class SubprocessOracle(Oracle):
    """One JSON object per line on stdin/stdout of a child process."""

    def __init__(self, group, cmd, budget=None, tol=DEFAULT_TOL):
        import subprocess

        super().__init__(group, budget, tol)
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


def _ratio(observed: Mat, model: Mat, tol: float, reason: str, **extra):
    """c with observed = c * model, or a refutation with reason."""
    c = ratio(flat(observed), flat(model), max(tol, 1e-7))
    if c is None:
        raise _Stop(reason, **extra)
    return c


# ---------------------------------------------------------------------------
# stage: detect the branch


def _detect(oracle: Oracle, probe: Mat, branches, what: str):
    """Query probe and return the one (kind, sigma) in branches whose
    op(probe) has the image's characteristic polynomial; a refutation when
    none does or several do."""
    img = oracle.query(probe)
    hits = [b for b in branches if charpolys_match(op(probe, *b), img)]
    if len(hits) != 1:
        raise _Stop(f"spectrum probe matches neither {what}")
    return hits[0]


def kind_probe(n: int, regime: str) -> Mat:
    """diag((1/2)^(n-1), 2, ..., 2); the contragredient inverts its spectrum."""
    return diagonal([Fraction(1, 2) ** (n - 1)] + [2] * (n - 1), regime)


def _sigma_probe(n: int) -> Mat:
    """diag(alpha, beta, ..., beta) in SU_n; conjugation flips its spectrum
    to its conjugate, similarity does not."""
    # beta = exp(2 pi i / q) for the first prime q dividing neither n nor n - 1
    beta = cmath.exp(2j * cmath.pi / next(q for q in (7, 11, 13, 17) if n % q and (n - 1) % q))
    return diagonal([beta ** (1 - n)] + [beta] * (n - 1), C64)


# ---------------------------------------------------------------------------
# stage: fit T from the images of the shears (exact groups)


def _fit_t(oracle: Oracle, kind: str) -> Mat:
    """The normalized T with phi(P) = T op(P) T^-1, read off the n^2 - n
    shears P = I + E_ij (i != j, row by row) as the intertwiner of the
    pairs (op(P), phi(P)), as `localcheck.check_pair` poses it.

    The fit is a certificate because the op images generate M_n as an
    algebra: op(P) - I is E_ij, or -E_ji for the contragredient kind, and
    E_ij E_ji = E_ii. If T op(P) = phi(P) T for every shear, then ker T is
    invariant under every op(P), hence under all of M_n, so it is 0 or
    everything: every nonzero intertwiner is invertible. Two of them, T and
    T', give T'^-1 T commuting with all of M_n, a scalar (Schur's lemma).
    So the intertwiner space is {0}, which refutes every automorphism, or
    one line of invertible matrices whose first basis element is the
    answer; the similarity solver never searches.
    """
    n, regime = oracle.group.n, oracle.group.regimes()[0]
    shears = [shear(n, regime, i, j, 1) for i in range(n) for j in range(n) if i != j]
    # the shears are real, so sigma fixes them and op needs no sigma yet
    res = simultaneous_similarity([(op(p, kind, SIGMA_ID), oracle.query(p)) for p in shears])
    if res.status == "NoSolution":
        raise _Stop(f"shear images admit no similarity: {res.note}")
    if res.status != "Solved":
        raise _Stop(f"shear images gave no similarity: {res.note}", status="Inconclusive")
    return _normalize(res.s)


def _detect_sigma_exact(oracle: Oracle, kind: str, t: Mat) -> str:
    """The sigma whose model T op(P) T^-1 equals the image of the probe
    P = I + i E_12; a refutation when neither does."""
    probe = shear(oracle.group.n, t.regime, 0, 1, GQ_I)
    img, t_inv = oracle.query(probe), inv(t)
    for sigma in (SIGMA_ID, SIGMA_CONJ):
        if equal(img, mul(mul(t, op(probe, kind, sigma)), t_inv)):
            return sigma
    raise _Stop("complex shear probe matches neither sigma")


# ---------------------------------------------------------------------------
# stage: fit T from SU samples (SU_n, U_n)


def _fit_su(oracle: Oracle, sigma: str, seed: int, tol: float) -> Mat:
    """The phase-normalized unitary U with phi(A) = U sigma(A) U^-1 on
    random SU_n samples; Inconclusive when none is found."""
    pairs = []
    for k in range(SU_SAMPLES):
        a = random_su(oracle.group.n, seed=seed * 101 + k)
        img = oracle.query(a)
        pairs.append((op(a, STANDARD, sigma), img))
    u = unitary_intertwiner(pairs, seed=seed, tol=max(tol, 1e-7))
    if u is None:
        raise _Stop("no unitary intertwiner through the SU samples", status="Inconclusive")
    return _normalize(u)


def _frob_dist(a: Mat, b: Mat) -> float:
    return sum(abs(a[i, j] - b[i, j]) ** 2 for i in range(a.n) for j in range(a.n)) ** 0.5


# ---------------------------------------------------------------------------
# stage: fit g (GL_n(R), U_n)


def _fit_g(oracle: Oracle, model: Automorphism, dets, tol: float) -> dict:
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
        c = _ratio(oracle.query(probe), apply(model, probe, check=False), tol, why, det=_wire(d))
        g_points.append((character_point(model.group, sigma, d), c))
    res = table_screen(model.group, first, sigma, g_points, tol)
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


def _verify_su(oracle: Oracle, candidate: Automorphism, seed: int, count: int, tol: float) -> float:
    """The largest Frobenius distance between a fresh SU_n probe's image
    and the candidate's; Refuted beyond 50 tol. `query` tests each probe's
    membership, so the candidate applies it unchecked."""
    residual = 0.0
    for k in range(count):
        probe = random_su(candidate.group.n, seed=seed * 413 + 57 + k)
        residual = max(residual, _frob_dist(oracle.query(probe), apply(candidate, probe, 1e-6, check=False)))
    if residual > tol * 50:
        raise _Stop(f"verification residual {residual:.3e} exceeds tolerance")
    return residual


def _verify_projective(oracle: Oracle, model: Automorphism, seed: int, count: int, tol: float) -> float:
    """Each fresh U_n probe's image must be a circle scalar c times
    U sigma(P) U^-1; the residual is the largest Frobenius distance between
    the two."""
    n, residual = model.group.n, 0.0
    for k in range(count):
        # an SU_n sample times diag(z, 1, ..., 1) for a random phase z
        z = cmath.exp(2j * cmath.pi * random.Random(seed * 733 + 91 + k).random())
        probe = mul(random_su(n, seed=seed * 733 + 91 + k), diag_first(n, z, C64))
        got = oracle.query(probe)
        want = apply(model, probe, check=False)
        c = _ratio(got, want, max(tol, 1e-7), "verification probe is not conjugation followed by a scalar")
        if abs(abs(complex(c)) - 1) > tol * 10:
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


def recover(
    oracle: Oracle, seed: int = 0, verify_probes: int = 50, dets=None, tol: float = 1e-6
) -> RecoveryReport:
    """Recover oracle's map through the pipeline for oracle.group and report.

    dets (default 2 and 3) feeds the GL_n(R) determinant probes, tol the
    unitary stages. A _Stop from a stage becomes the Refuted or
    Inconclusive report; an exhausted budget re-raises with the engine
    label and probe count attached as `partial`. Raises NoEngine for
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
        fields = _pipeline(oracle, seed, verify_probes, dets, tol)
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


def _pipeline(oracle: Oracle, seed, verify_probes, dets, tol) -> dict:
    """detect -> fit T -> (sigma over C) -> fit g -> verify, each as the
    group's canonical form needs it; returns the Recovered report's fields."""
    group = oracle.group
    if group.unitary:
        branches = [(STANDARD, SIGMA_ID), (STANDARD, SIGMA_CONJ)]
        kind, sigma = _detect(oracle, _sigma_probe(group.n), branches, "sigma")
        t = _fit_su(oracle, sigma, seed, tol)
    else:
        branches = [(STANDARD, SIGMA_ID), (CONTRAGREDIENT, SIGMA_ID)]
        kind, _ = _detect(oracle, kind_probe(group.n, group.regimes()[0]), branches, "kind")
        t = _fit_t(oracle, kind)
        sigma = _detect_sigma_exact(oracle, kind, t) if group.field == "C" else SIGMA_ID
    model = make_automorphism(group, kind, sigma, t, tol=1e-6)
    if group.family == "GL":
        fields = _fit_g(oracle, model, dets, tol)
    elif group.family == "Un":
        fields = _fit_g(oracle, model, CIRCLE_GENERATORS, tol)
        fields["notes"] = ["verification is projective: scalars at unprobed determinants stay unchecked"]
    else:
        fields = {"auto": model}
    if group.family == "SUn":
        fields["residual"] = _verify_su(oracle, model, seed, verify_probes, tol)
    elif group.family == "Un":
        fields["residual"] = _verify_projective(oracle, model, seed, verify_probes, tol)
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


def recover_sun(oracle: Oracle, seed: int = 0, verify_probes: int = 50, tol: float = 1e-6) -> RecoveryReport:
    _only(oracle, "SU_n", "SUn")
    return recover(oracle, seed, verify_probes, tol=tol)


def recover_un(oracle: Oracle, seed: int = 0, verify_probes: int = 50, tol: float = 1e-6) -> RecoveryReport:
    _only(oracle, "U_n", "Un")
    return recover(oracle, seed, verify_probes, tol=tol)
